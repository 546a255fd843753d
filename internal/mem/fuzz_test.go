package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The operations of FuzzRAM's op stream.
const (
	opWrite = iota
	opRead
	opReset
	opCapture
	opApply
	opSeal
	opClone
	opLoad
	opFlashRead
	numOps
)

// fuzzRAMSize is four whole pages and a partial fifth, so the last page
// of the RAM is shorter than a page.
const fuzzRAMSize = 4*pageSize + 1024

// FuzzRAM is the differential oracle for the paged memories. It drives a
// RAM and a flat byte-slice model through the same stream of writes,
// reads, Resets, delta captures and re-applications, Seals and clones
// built over the last sealed baseline (NewRAMFrom), and requires equal
// bytes after every step. Writes land on never-written pages, on pages the
// baseline holds and across page boundaries. Every baseline sealed so far
// must keep the bytes it was sealed with, whatever the RAMs sharing it
// write. In the same stream a full-size flash and a flat 1 MiB model take
// word loads at any offset, across page boundaries and up to Size, and
// reads across pages and off the device end; a load past Size must be
// refused and leave the flash as it was.
func FuzzRAM(f *testing.F) {
	f.Add([]byte{})
	// Write across the boundary of pages 0 and 1, seal, write page 1
	// again, Reset and read across the boundary.
	f.Add([]byte{opWrite, 0, 250, 40, 7, opSeal, opWrite, 1, 3, 9, 1, opReset, opRead, 0, 250, 40})
	// Seal, clone over the baseline, write the sealed page on the clone,
	// capture, Reset, apply, then seal the clone and clone again.
	f.Add([]byte{opWrite, 2, 10, 64, 3, opSeal, opClone, opWrite, 2, 12, 8, 5, opCapture, opReset,
		opApply, opSeal, opClone, opWrite, 4, 255, 64, 9, opRead, 4, 0, 64})
	// Writes to the partial last page, a capture before a seal (dropped
	// by it) and an apply on a clone.
	f.Add([]byte{opWrite, 4, 3, 16, 1, opCapture, opClone, opApply, opWrite, 0, 0, 1, 2, opCapture,
		opWrite, 3, 255, 64, 6, opReset, opApply, opRead, 3, 250, 64})
	// Flash: a load across the boundary of pages 0 and 1 read back across
	// it, a load ending at Size, two refused past it (by 2 and 13 bytes),
	// and a read running off the device end.
	f.Add([]byte{opLoad, 0, 250, 40, 5, opFlashRead, 0, 250, 63, opLoad, 255, 243, 1, 9,
		opLoad, 255, 241, 1, 7, opLoad, 255, 250, 20, 3, opFlashRead, 255, 245, 63,
		opFlashRead, 254, 255, 63})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ram := NewRAM(fuzzRAMSize, 2)
		model := make([]byte, fuzzRAMSize) // the RAM's contents
		base := make([]byte, fuzzRAMSize)  // what Reset rewinds to
		var sealed []*Baseline
		var sealedBytes [][]byte
		var delta *PageDelta // captured since the last seal, nil if none
		var deltaBytes []byte

		arg := func() int {
			if len(ops) == 0 {
				return 0
			}
			v := int(ops[0])
			ops = ops[1:]
			return v
		}
		// span picks a range inside the RAM: a page, an offset into it
		// that may sit just below its end, and a length of up to 64
		// bytes, so writes and reads cross page boundaries often.
		span := func() (uint32, int) {
			pg, at, n := arg()%5, arg(), 1+arg()%64
			off := pg*pageSize + at*pageSize/256
			if at >= 240 {
				off = pg*pageSize + pageSize - (at - 239)
			}
			off = min(off, fuzzRAMSize-1)
			return uint32(off), min(n, fuzzRAMSize-off)
		}
		var flash *Flash
		var flashModel []byte // the flash's contents
		newFlash := func() {
			if flash == nil {
				flash, flashModel = NewFlash(FlashSize, []int{8, 9, 10, 9}), make([]byte, FlashSize)
			}
		}
		// flashSpan picks an offset in one of the flash's 256 pages, often
		// just below the page's end, and a length of up to 64 bytes, so
		// loads and reads cross page boundaries and the device end.
		flashSpan := func() (uint32, int) {
			pg, at, n := arg(), arg(), 1+arg()%64
			off := pg*pageSize + at*pageSize/256
			if at >= 240 {
				off = pg*pageSize + pageSize - (at - 239)
			}
			return uint32(off), n
		}
		got := make([]byte, fuzzRAMSize)
		for step := 0; len(ops) > 0; step++ {
			switch op := arg() % numOps; op {
			case opWrite:
				off, n := span()
				seed := byte(arg())
				src := make([]byte, n)
				for i := range src {
					src[i] = seed + byte(i*7+step)
				}
				ram.Write(off, src)
				copy(model[off:], src)
			case opRead:
				off, n := span()
				dst := make([]byte, n)
				ram.Read(off, dst)
				if !bytes.Equal(dst, model[off:int(off)+n]) {
					t.Fatalf("step %d: Read(%#x, %d) = % x, want % x", step, off, n, dst, model[off:int(off)+n])
				}
			case opReset:
				ram.Reset()
				copy(model, base)
			case opCapture:
				delta, deltaBytes = ram.CaptureDelta(), append([]byte(nil), model...)
			case opApply:
				if delta == nil {
					continue
				}
				ram.Reset()
				ram.ApplyDelta(delta)
				copy(model, deltaBytes)
			case opSeal:
				b := ram.Seal()
				copy(base, model)
				sealed, sealedBytes = append(sealed, b), append(sealedBytes, append([]byte(nil), model...))
				delta = nil // it holds pages written over the old baseline
			case opClone:
				if len(sealed) == 0 {
					ram = NewRAM(fuzzRAMSize, 2)
				} else {
					ram = NewRAMFrom(sealed[len(sealed)-1], 2)
				}
				copy(model, base)
			case opLoad:
				newFlash()
				off, n := flashSpan()
				seed := uint32(arg())
				words := make([]uint32, 1+n/4)
				for i := range words {
					words[i] = seed*0x01010101 ^ uint32(step*977+i*131)
				}
				err := flash.LoadWords(off, words)
				if past := int(off)+4*len(words) > FlashSize; past != (err != nil) {
					t.Fatalf("step %d: LoadWords(%#x, %d words) = %v", step, off, len(words), err)
				}
				if err == nil {
					for i, w := range words {
						binary.LittleEndian.PutUint32(flashModel[int(off)+4*i:], w)
					}
				}
			case opFlashRead:
				newFlash()
				off, n := flashSpan()
				dst := bytes.Repeat([]byte{0xee}, n)
				flash.Read(off, dst)
				// Only the bytes below Size are filled.
				in := min(n, FlashSize-int(off))
				want := append(append([]byte(nil), flashModel[off:int(off)+in]...), bytes.Repeat([]byte{0xee}, n-in)...)
				if !bytes.Equal(dst, want) {
					t.Fatalf("step %d: flash Read(%#x, %d) = % x, want % x", step, off, n, dst, want)
				}
			}
			ram.Read(0, got)
			if i := firstDiff(got, model); i >= 0 {
				t.Fatalf("step %d: byte %#x reads %#x, want %#x", step, i, got[i], model[i])
			}
			for k, b := range sealed {
				if i := firstDiff(b.Bytes(), sealedBytes[k]); i >= 0 {
					t.Fatalf("step %d: sealed baseline %d changed at byte %#x", step, k, i)
				}
			}
		}
		if ram.Size() != fuzzRAMSize {
			t.Fatalf("Size %d, want %d", ram.Size(), fuzzRAMSize)
		}
		if flash != nil {
			if flash.Size() != FlashSize {
				t.Fatalf("flash Size %#x, want %#x", flash.Size(), FlashSize)
			}
			all := make([]byte, FlashSize)
			flash.Read(0, all)
			if i := firstDiff(all, flashModel); i >= 0 {
				t.Fatalf("flash byte %#x reads %#x, want %#x", i, all[i], flashModel[i])
			}
		}
	})
}

// firstDiff returns the first index where a and b differ, -1 if none.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
