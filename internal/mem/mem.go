package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
)

// Physical memory map of the SoC. The uncached SRAM alias maps to the same
// storage as SRAMBase but is never routed through the private caches; it is
// used for inter-core synchronisation flags.
const (
	FlashBase = 0x0000_0000
	FlashSize = 1 << 20 // 1 MiB

	SRAMBase         = 0x2000_0000
	SRAMSize         = 256 << 10
	SRAMUncachedBase = 0x2800_0000 // alias of SRAMBase, uncacheable

	DTCMBase  = 0x3000_0000 // + coreID*TCMStride, private
	ITCMBase  = 0x3400_0000 // + coreID*TCMStride, private
	TCMSize   = 16 << 10
	TCMStride = 1 << 16

	// LineBytes is the width of a bus burst and of one cache line.
	LineBytes = 16

	// BarrierFlagBase is the reserved line at the top of the uncached SRAM
	// alias holding the per-core completion flags of the decentralized
	// scheduler barrier (internal/sched). Word id*4 belongs to core id.
	BarrierFlagBase = SRAMUncachedBase + SRAMSize - 64
)

// Device is byte-addressable storage with an access-cost model. Addresses
// are device-relative (0-based).
type Device interface {
	// Size returns the device capacity in bytes.
	Size() uint32
	// Read copies len(dst) bytes starting at off into dst.
	Read(off uint32, dst []byte)
	// Write stores src at off. Read-only devices ignore writes.
	Write(off uint32, src []byte)
	// AccessCycles returns how many bus cycles an access of n bytes at off
	// costs (the same for read and write in this model).
	AccessCycles(off uint32, n int) int
}

// pageBits is the log2 of the RAM page size. A RAM keeps its contents in
// pages of this size and remembers which of them a run has written, so
// rewinding between fault runs copies only those pages instead of the
// whole device (a run typically writes a few data pages of the 256 KiB
// SRAM).
const pageBits = 12

const (
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page is one page of RAM contents.
type page [pageSize]byte

// zeroPage is what a page that holds no baseline reads as until it is
// written. Nothing writes it.
var zeroPage page

// pageTable maps a memory's page numbers to pages. Every access reads it,
// so it owns its host cache lines.
type pageTable []*page

// newPageTable returns the table of a size-byte memory, every page of it
// reading as zeroPage.
func newPageTable(size uint32) pageTable {
	t := WholeLines[*page](int(size+pageMask) >> pageBits)
	for p := range t {
		t[p] = &zeroPage
	}
	return t
}

// read copies the bytes at off into dst, as far as the table's pages
// reach.
func (t pageTable) read(off uint32, dst []byte) {
	if o := off & pageMask; int(o)+len(dst) <= pageSize {
		copy(dst, t[off>>pageBits][o:])
		return
	}
	t.readAcross(off, dst)
}

// readAcross is read for a range that crosses a page boundary. It stops
// after the table's last page, so a read that runs off a flash's end
// fills only the bytes below its Size.
func (t pageTable) readAcross(off uint32, dst []byte) {
	for p := int(off >> pageBits); len(dst) > 0 && p < len(t); p++ {
		n := copy(dst, t[p][off&pageMask:])
		off, dst = off+uint32(n), dst[n:]
	}
}

// dirtyMap tracks written pages of a byte-addressed device. Every store
// writes it, so it is per-cycle state and owns its host cache lines.
type dirtyMap []uint64

func newDirtyMap(pages int) dirtyMap {
	return WholeLines[uint64]((pages + 63) / 64)
}

// hostLine is the host cache line size the simulator's per-cycle state is
// laid out for.
const hostLine = 64

// WholeLines returns n zero Ts over a backing array that starts on a
// 64-byte host cache line and spans whole lines, so no other object
// shares a line with the per-cycle state it holds. The allocator starts an
// array of more than 512 bytes that holds pointers 8 bytes into a line,
// behind its type header; the capacity append rounds up to the
// allocator's size class leaves room to start the slice at the first
// element on a line instead. No element of a pointer-holding T whose size
// is a multiple of 16 bytes lands on a line there, so for such a T
// WholeLines allocates over 32 KiB, which the allocator starts on a page.
func WholeLines[T any](n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	c := n
	for c*size%hostLine != 0 {
		c++
	}
	s := slices.Grow([]T(nil), c)
	s = s[:cap(s)]
	for k := range len(s) - c + 1 {
		if uintptr(unsafe.Pointer(unsafe.SliceData(s[k:])))%hostLine == 0 {
			return s[k : k+n : k+c]
		}
	}
	return make([]T, max(c, 32<<10/size+1))[:n:c]
}

func (d dirtyMap) set(p uint32) { d[p/64] |= 1 << (p % 64) }

// each calls fn for every dirty page, in ascending order.
func (d dirtyMap) each(fn func(p uint32)) {
	for w, m := range d {
		for m != 0 {
			fn(uint32(w*64 + bits.TrailingZeros64(m)))
			m &= m - 1
		}
	}
}

// PageDelta is the set of pages a run has written since the device's last
// Reset or Seal, with their contents — exactly the difference between the
// current contents and the baseline, because Reset and Seal are the only
// operations that clear the dirty map. Captured by RAM.CaptureDelta and
// reapplied by RAM.ApplyDelta (checkpoint machinery).
type PageDelta struct {
	pages []uint32 // page numbers, ascending
	data  []page   // copies of those pages, in the same order
}

// RAM is simple SRAM with uniform latency; a core-private TCM is a RAM
// with single-cycle latency (see NewTCM).
//
// A RAM keeps its contents in 4 KiB pages, allocated on each page's first
// write. Until then a page reads from the RAM's baseline (see Seal and
// NewRAMFrom), whose pages every RAM built from it shares read-only, or
// as zeros. A written page stays the RAM's own: Reset copies the baseline
// back into it, so a reused RAM's runs allocate only when they write a
// page for the first time.
type RAM struct {
	rd      pageTable // every page: the RAM's own if written, else the baseline's or zeroPage
	wr      pageTable // the RAM's own pages, nil until first written
	base    *Baseline // what Reset rewinds to; nil for zeros
	dirty   dirtyMap
	size    uint32
	latency int
}

// Baseline is a RAM's sealed contents (see RAM.Seal). Nothing writes its
// pages, so any number of RAMs, on any goroutines, may share them.
type Baseline struct {
	size  uint32
	pages []*page // nil pages read as zeros
}

// Bytes returns a copy of the baseline's contents.
func (b *Baseline) Bytes() []byte {
	out := make([]byte, b.size)
	for p, pg := range b.pages {
		if pg != nil {
			copy(out[p<<pageBits:], pg[:])
		}
	}
	return out
}

// NewRAM returns a zeroed RAM of the given size and access latency in
// cycles.
func NewRAM(size uint32, latency int) *RAM { return newRAM(size, latency, nil) }

// NewRAMFrom returns a RAM of the given latency that holds b: it reads as
// b until written, and Reset rewinds it to b. It shares b's pages rather
// than copying them.
func NewRAMFrom(b *Baseline, latency int) *RAM { return newRAM(b.size, latency, b) }

func newRAM(size uint32, latency int, b *Baseline) *RAM {
	n := int(size+pageMask) >> pageBits
	r := &RAM{
		rd:      newPageTable(size),
		wr:      WholeLines[*page](n),
		base:    b,
		dirty:   newDirtyMap(n),
		size:    size,
		latency: latency,
	}
	for p := range r.rd {
		if pg := r.baseline(uint32(p)); pg != nil {
			r.rd[p] = pg
		}
	}
	return r
}

// baseline returns page p of the RAM's baseline, nil for zeros.
func (r *RAM) baseline(p uint32) *page {
	if r.base == nil {
		return nil
	}
	return r.base.pages[p]
}

func (r *RAM) Size() uint32 { return r.size }

// Read copies the bytes at off into dst; off+len(dst) must not pass
// Size.
func (r *RAM) Read(off uint32, dst []byte) { r.rd.read(off, dst) }

// Write stores src at off; off+len(src) must not pass Size.
func (r *RAM) Write(off uint32, src []byte) {
	p, o := off>>pageBits, off&pageMask
	if w := r.wr[p]; w != nil && int(o)+len(src) <= pageSize {
		r.dirty.set(p)
		copy(w[o:], src)
		return
	}
	r.writeSlow(off, src)
}

// writeSlow is Write for a range that crosses a page boundary or reaches
// a page the RAM has not written yet.
func (r *RAM) writeSlow(off uint32, src []byte) {
	for len(src) > 0 {
		p := off >> pageBits
		r.dirty.set(p)
		n := copy(r.own(p)[off&pageMask:], src)
		off, src = off+uint32(n), src[n:]
	}
}

// own returns the RAM's own page p, allocating it on first use as a copy
// of the baseline's page.
func (r *RAM) own(p uint32) *page {
	if r.wr[p] == nil {
		w := new(page)
		if b := r.baseline(p); b != nil {
			*w = *b
		}
		r.wr[p], r.rd[p] = w, w
	}
	return r.wr[p]
}

func (r *RAM) AccessCycles(uint32, int) int { return r.latency }

// Seal freezes the RAM's contents as its baseline and returns it: Reset
// rewinds to it from then on, and NewRAMFrom builds RAMs that share it.
// The pages written since the last Reset or Seal become the baseline's
// and are never written again; the RAM's next write to one copies it
// into a page of its own first.
func (r *RAM) Seal() *Baseline {
	b := &Baseline{size: r.size, pages: make([]*page, len(r.rd))}
	if r.base != nil {
		copy(b.pages, r.base.pages)
	}
	r.dirty.each(func(p uint32) {
		b.pages[p], r.wr[p] = r.wr[p], nil
	})
	clear(r.dirty)
	r.base = b
	return b
}

// Reset rewinds the RAM to its baseline, or to zeros when it has none,
// copying only the pages written since the previous Reset or Seal.
func (r *RAM) Reset() {
	r.dirty.each(func(p uint32) {
		if b := r.baseline(p); b != nil {
			*r.wr[p] = *b
		} else {
			clear(r.wr[p][:])
		}
	})
	clear(r.dirty)
}

// CaptureDelta snapshots the pages written since the last Reset or Seal
// without disturbing the dirty map (the run keeps going after the
// snapshot); ApplyDelta on a RAM just Reset to the same baseline
// reproduces the captured contents exactly.
func (r *RAM) CaptureDelta() *PageDelta {
	d := &PageDelta{}
	r.dirty.each(func(p uint32) { d.pages = append(d.pages, p) })
	d.data = make([]page, len(d.pages))
	for i, p := range d.pages {
		d.data[i] = *r.wr[p]
	}
	return d
}

// ApplyDelta overlays a captured page delta, marking the pages dirty so the
// next Reset rewinds them.
func (r *RAM) ApplyDelta(d *PageDelta) {
	for i, p := range d.pages {
		r.dirty.set(p)
		*r.own(p) = d.data[i]
	}
}

// Flash models the code flash: writable only through the loader (LoadWords),
// read-only from the bus, with per-bank wait states. Bank latencies differ
// slightly, which is one reason the paper's "code position in memory"
// scenario knob affects timing.
//
// The flash keeps its contents in 4 KiB pages behind a page table, as a
// RAM does, each allocated when a program is first loaded into it; a page
// no program reaches reads as zeros, as unprogrammed flash would. A
// campaign's programs take a few KiB of the 1 MiB device, and every SoC
// build would otherwise allocate and zero all of it.
type Flash struct {
	pages    pageTable // every page: its own if loaded, else zeroPage
	size     uint32
	bankSize uint32
	lat      []int
}

// NewFlash creates a flash of the given size, a whole number of 4 KiB
// pages, split into equal banks; lat[i] is the access latency of bank i
// and must be non-empty.
func NewFlash(size uint32, bankLatencies []int) *Flash {
	if len(bankLatencies) == 0 {
		panic("mem: flash needs at least one bank latency")
	}
	if size%uint32(len(bankLatencies)) != 0 {
		panic("mem: flash size not divisible by bank count")
	}
	if size%pageSize != 0 {
		panic("mem: flash size not a whole number of pages")
	}
	return &Flash{
		pages:    newPageTable(size),
		size:     size,
		bankSize: size / uint32(len(bankLatencies)),
		lat:      append([]int(nil), bankLatencies...),
	}
}

func (f *Flash) Size() uint32 { return f.size }

// Read copies the flash bytes at off into dst, as far as the device
// reaches.
func (f *Flash) Read(off uint32, dst []byte) { f.pages.read(off, dst) }

// Write is ignored: flash is not bus-writable (mirrors real hardware, and
// keeps wild stores from a faulty program from corrupting code).
func (f *Flash) Write(uint32, []byte) {}

func (f *Flash) AccessCycles(off uint32, _ int) int {
	b := off / f.bankSize
	if int(b) >= len(f.lat) {
		b = uint32(len(f.lat) - 1)
	}
	return f.lat[b]
}

// LoadWords programs the flash image at the given offset (loader path, not
// a bus access).
func (f *Flash) LoadWords(off uint32, words []uint32) error {
	end := uint64(off) + uint64(len(words))*4
	if end > uint64(f.size) {
		return fmt.Errorf("mem: flash image [%#x,%#x) exceeds size %#x", off, end, f.size)
	}
	for _, w := range words {
		for range 4 {
			p := off >> pageBits
			if f.pages[p] == &zeroPage {
				f.pages[p] = new(page)
			}
			f.pages[p][off&pageMask] = byte(w)
			off, w = off+1, w>>8
		}
	}
	return nil
}

// NewTCM returns a single-cycle tightly-coupled memory of the given size,
// private to one core.
func NewTCM(size uint32) *RAM { return NewRAM(size, 1) }

// Word helpers shared by devices and the CPU.

// ReadWord reads a little-endian 32-bit word from d at off.
func ReadWord(d Device, off uint32) uint32 {
	var b [4]byte
	d.Read(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteWord writes a little-endian 32-bit word to d at off.
func WriteWord(d Device, off uint32, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	d.Write(off, b[:])
}

// DTCMFor returns the base address of core coreID's data TCM.
func DTCMFor(coreID int) uint32 { return DTCMBase + uint32(coreID)*TCMStride }

// ITCMFor returns the base address of core coreID's instruction TCM.
func ITCMFor(coreID int) uint32 { return ITCMBase + uint32(coreID)*TCMStride }

// InTCM reports whether addr falls in core coreID's private TCM windows.
func InTCM(addr uint32, coreID int) bool {
	d := DTCMFor(coreID)
	i := ITCMFor(coreID)
	return (addr >= d && addr < d+TCMSize) || (addr >= i && addr < i+TCMSize)
}

// LineAddr returns the line-aligned base of addr.
func LineAddr(addr uint32) uint32 { return addr &^ uint32(LineBytes-1) }
