package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

// dirtyPageBits is the log2 of the dirty-tracking page size: writable
// memories remember which 4 KiB pages a run has touched, so restoring
// between fault runs copies only the touched pages instead of the whole
// device (a run typically dirties a few data pages of the 256 KiB SRAM).
const dirtyPageBits = 12

// dirtyMap tracks written pages of a byte-addressed device. Every store
// writes it, so it is per-cycle state and owns its host cache lines.
type dirtyMap []uint64

func newDirtyMap(size uint32) dirtyMap {
	pages := (size + (1 << dirtyPageBits) - 1) >> dirtyPageBits
	return WholeLines[uint64](int(pages+63) / 64)
}

// hostLine is the host cache line size the simulator's per-cycle state is
// laid out for.
const hostLine = 64

// WholeLines returns n zero Ts over a backing array of whole 64-byte host
// cache lines. For a T that holds no pointers the allocator starts such an
// array on a line, so no other object shares a line with the per-cycle
// state it holds. (An array with pointers of more than 512 bytes starts
// 8 bytes into one, behind the allocator's type header.)
func WholeLines[T any](n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	c := n
	for c*size%hostLine != 0 {
		c++
	}
	return make([]T, n, c)
}

func (d dirtyMap) mark(off uint32, n int) {
	first := off >> dirtyPageBits
	last := (off + uint32(n) - 1) >> dirtyPageBits
	for p := first; p <= last; p++ {
		d[p/64] |= 1 << (p % 64)
	}
}

// sweep calls fn for every dirty page's byte range and clears the map.
func (d dirtyMap) sweep(size uint32, fn func(lo, hi uint32)) {
	for w := range d {
		m := d[w]
		d[w] = 0
		for m != 0 {
			p := uint32(w*64 + bits.TrailingZeros64(m))
			m &= m - 1
			lo := p << dirtyPageBits
			hi := lo + 1<<dirtyPageBits
			if hi > size {
				hi = size
			}
			fn(lo, hi)
		}
	}
}

// pages calls fn for every dirty page's byte range without clearing the
// map (non-destructive counterpart of sweep, used for delta capture).
func (d dirtyMap) pages(size uint32, fn func(lo, hi uint32)) {
	for w := range d {
		m := d[w]
		for m != 0 {
			p := uint32(w*64 + bits.TrailingZeros64(m))
			m &= m - 1
			lo := p << dirtyPageBits
			hi := lo + 1<<dirtyPageBits
			if hi > size {
				hi = size
			}
			fn(lo, hi)
		}
	}
}

// PageDelta is the set of pages a run has written since the device's last
// Reset/Restore sweep, with their contents — exactly the difference between
// the current contents and the swept-to state, because sweeps are the only
// operations that clear the dirty map. Captured by RAM.CaptureDelta and
// reapplied by RAM.ApplyDelta (checkpoint machinery).
type PageDelta struct {
	offs []uint32 // page range start offsets, ascending
	ends []uint32 // matching page range end offsets (exclusive)
	data []byte   // page contents, concatenated in offs order
}

// RAM is simple SRAM with uniform latency; a core-private TCM is a RAM
// with single-cycle latency (see NewTCM).
type RAM struct {
	data    []byte
	dirty   dirtyMap
	latency int
}

// NewRAM returns a RAM of the given size and access latency in cycles.
func NewRAM(size uint32, latency int) *RAM {
	return &RAM{data: make([]byte, size), dirty: newDirtyMap(size), latency: latency}
}

// NewRAMFrom returns a RAM of the given latency holding a copy of img, a
// baseline image: every page counts as clean, as after Restore(img), so
// img must be the image later Restore calls rewind to.
func NewRAMFrom(img []byte, latency int) *RAM {
	return &RAM{data: append([]byte(nil), img...), dirty: newDirtyMap(uint32(len(img))), latency: latency}
}

func (r *RAM) Size() uint32 { return uint32(len(r.data)) }

func (r *RAM) Read(off uint32, dst []byte) { copy(dst, r.data[off:]) }

func (r *RAM) Write(off uint32, src []byte) {
	if len(src) != 0 {
		r.dirty.mark(off, len(src))
		copy(r.data[off:], src)
	}
}

func (r *RAM) AccessCycles(uint32, int) int { return r.latency }

// Snapshot returns a copy of the RAM contents (baseline capture for
// reusable-simulator resets).
func (r *RAM) Snapshot() []byte { return append([]byte(nil), r.data...) }

// Restore rewinds the RAM contents to a snapshot taken from a RAM of the
// same size, copying only the pages written since the previous
// Restore/Reset (writes before the snapshot was taken are content no-ops).
func (r *RAM) Restore(img []byte) {
	if len(img) != len(r.data) {
		panic(fmt.Sprintf("mem: RAM restore size %d != %d", len(img), len(r.data)))
	}
	r.dirty.sweep(r.Size(), func(lo, hi uint32) { copy(r.data[lo:hi], img[lo:hi]) })
}

// Reset clears the RAM to power-on state (all zeros), sweeping only the
// pages written since the previous Restore/Reset.
func (r *RAM) Reset() {
	r.dirty.sweep(r.Size(), func(lo, hi uint32) { clear(r.data[lo:hi]) })
}

// CaptureDelta snapshots the pages written since the last Restore/Reset
// sweep without disturbing the dirty map (the run keeps going after the
// snapshot); ApplyDelta on a RAM in the swept-to state reproduces the
// captured contents exactly.
func (r *RAM) CaptureDelta() *PageDelta {
	d := &PageDelta{}
	r.dirty.pages(r.Size(), func(lo, hi uint32) {
		d.offs = append(d.offs, lo)
		d.ends = append(d.ends, hi)
		d.data = append(d.data, r.data[lo:hi]...)
	})
	return d
}

// ApplyDelta overlays a captured page delta, marking the pages dirty so the
// next sweep rewinds them.
func (r *RAM) ApplyDelta(d *PageDelta) {
	pos := 0
	for i, lo := range d.offs {
		hi := d.ends[i]
		n := int(hi - lo)
		copy(r.data[lo:hi], d.data[pos:pos+n])
		r.dirty.mark(lo, n)
		pos += n
	}
}

// Flash models the code flash: writable only through the loader (LoadWords),
// read-only from the bus, with per-bank wait states. Bank latencies differ
// slightly, which is one reason the paper's "code position in memory"
// scenario knob affects timing.
//
// The flash keeps backing bytes only for the range its programs were
// loaded into, rounded out to whole host cache lines; every other offset
// below Size reads as zeros, as unprogrammed flash would. A campaign's
// programs take a few KiB of the 1 MiB device, and every SoC build would
// otherwise allocate and zero all of it.
type Flash struct {
	size     uint32
	base     uint32 // offset of data[0]: the programmed range is [base, base+len(data))
	data     []byte
	bankSize uint32
	lat      []int
}

// NewFlash creates a flash of the given size split into equal banks; lat[i]
// is the access latency of bank i and must be non-empty.
func NewFlash(size uint32, bankLatencies []int) *Flash {
	if len(bankLatencies) == 0 {
		panic("mem: flash needs at least one bank latency")
	}
	if size%uint32(len(bankLatencies)) != 0 {
		panic("mem: flash size not divisible by bank count")
	}
	return &Flash{
		size:     size,
		bankSize: size / uint32(len(bankLatencies)),
		lat:      append([]int(nil), bankLatencies...),
	}
}

func (f *Flash) Size() uint32 { return f.size }

// Read copies the flash bytes at off into dst, as far as the device
// reaches: outside the programmed range they are zeros.
func (f *Flash) Read(off uint32, dst []byte) {
	if rest := f.size - off; uint32(len(dst)) > rest {
		dst = dst[:rest]
	}
	end := off + uint32(len(dst))
	lo, hi := f.base, f.base+uint32(len(f.data))
	if off >= lo && end <= hi {
		copy(dst, f.data[off-lo:])
		return
	}
	clear(dst)
	if off < hi && end > lo {
		from, to := max(off, lo), min(end, hi)
		copy(dst[from-off:to-off], f.data[from-lo:])
	}
}

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
// a bus access), widening the programmed range to cover it.
func (f *Flash) LoadWords(off uint32, words []uint32) error {
	end := uint64(off) + uint64(len(words))*4
	if end > uint64(f.size) {
		return fmt.Errorf("mem: flash image [%#x,%#x) exceeds size %#x", off, end, f.size)
	}
	if len(words) == 0 {
		return nil
	}
	f.cover(off, uint32(end))
	for i, w := range words {
		binary.LittleEndian.PutUint32(f.data[off-f.base+uint32(i)*4:], w)
	}
	return nil
}

// cover widens the programmed range to include [lo, hi), rounded out to
// whole host lines within the device, keeping the bytes already loaded.
func (f *Flash) cover(lo, hi uint32) {
	lo = lo &^ (hostLine - 1)
	hi = min(f.size, (hi+hostLine-1)&^(hostLine-1))
	if len(f.data) != 0 {
		end := f.base + uint32(len(f.data))
		if lo >= f.base && hi <= end {
			return
		}
		lo, hi = min(lo, f.base), max(hi, end)
	}
	data := make([]byte, hi-lo)
	if len(f.data) != 0 {
		copy(data[f.base-lo:], f.data)
	}
	f.base, f.data = lo, data
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
