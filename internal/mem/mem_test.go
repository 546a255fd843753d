package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"
)

func TestRAMReadWrite(t *testing.T) {
	r := NewRAM(1024, 2)
	WriteWord(r, 16, 0xCAFEBABE)
	if got := ReadWord(r, 16); got != 0xCAFEBABE {
		t.Errorf("got 0x%x", got)
	}
	if r.AccessCycles(0, 4) != 2 {
		t.Error("latency")
	}
	// Little-endian layout.
	b := make([]byte, 4)
	r.Read(16, b)
	if b[0] != 0xBE || b[3] != 0xCA {
		t.Errorf("endianness: % x", b)
	}
}

func TestFlashBankLatency(t *testing.T) {
	f := NewFlash(1<<20, []int{8, 9})
	if got := f.AccessCycles(0, 16); got != 8 {
		t.Errorf("bank0 latency %d", got)
	}
	if got := f.AccessCycles(1<<19, 16); got != 9 {
		t.Errorf("bank1 latency %d", got)
	}
	if got := f.AccessCycles(1<<20-4, 4); got != 9 {
		t.Errorf("last bank latency %d", got)
	}
}

func TestFlashLoadAndReadOnly(t *testing.T) {
	f := NewFlash(4096, []int{8})
	if err := f.LoadWords(8, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if ReadWord(f, 12) != 2 {
		t.Error("load failed")
	}
	WriteWord(f, 12, 99) // bus writes ignored
	if ReadWord(f, 12) != 2 {
		t.Error("flash was writable from the bus")
	}
	if err := f.LoadWords(4094, []uint32{1}); err == nil {
		t.Error("overflow load accepted")
	}
}

func TestTCM(t *testing.T) {
	tcm := NewTCM(TCMSize)
	WriteWord(tcm, 0, 7)
	if ReadWord(tcm, 0) != 7 {
		t.Error("tcm rw")
	}
	if tcm.AccessCycles(0, 4) != 1 {
		t.Error("tcm must be single cycle")
	}
}

func TestTCMAddressing(t *testing.T) {
	if DTCMFor(0) != DTCMBase || DTCMFor(2) != DTCMBase+2*TCMStride {
		t.Error("DTCMFor")
	}
	if !InTCM(DTCMFor(1), 1) || InTCM(DTCMFor(1), 0) {
		t.Error("InTCM privacy")
	}
	if !InTCM(ITCMFor(2)+TCMSize-1, 2) || InTCM(ITCMFor(2)+TCMSize, 2) {
		t.Error("InTCM bounds")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1237) != 0x1230 {
		t.Errorf("LineAddr = %#x", LineAddr(0x1237))
	}
	if LineAddr(0x1230) != 0x1230 {
		t.Error("aligned address changed")
	}
}

// TestFlashSizedReads loads a program into the middle of a full-size flash
// and reads before, across and past its range: the programmed bytes come
// back where they were loaded and zeros everywhere else below Size, as
// they did when the flash backed all of it.
func TestFlashSizedReads(t *testing.T) {
	f := NewFlash(FlashSize, []int{8, 9, 10, 9})
	const at = 0x1_0008
	words := []uint32{0x11223344, 0x55667788, 0x99aabbcc}
	if err := f.LoadWords(at, words); err != nil {
		t.Fatal(err)
	}
	if f.Size() != FlashSize {
		t.Fatalf("Size %#x, want %#x", f.Size(), FlashSize)
	}
	want := make([]byte, FlashSize)
	for i, w := range words {
		binary.LittleEndian.PutUint32(want[at+4*i:], w)
	}
	for _, r := range []struct{ off, n uint32 }{
		{0, 16},              // far before
		{at - 64, 16},        // 64 bytes before, in the page below
		{at - 8, 8},          // just before
		{at - 4, 8},          // across the start
		{at, 12},             // exactly the program
		{at + 6, 16},         // across the end
		{at + 12, 16},        // just past the end
		{at + 0x1_0000, 16},  // 64 KiB past the end
		{0, FlashSize},       // the whole device
		{FlashSize - 16, 16}, // the last line
	} {
		got := make([]byte, r.n)
		for i := range got {
			got[i] = 0xee // stale bytes a read must overwrite
		}
		f.Read(r.off, got)
		if !bytes.Equal(got, want[r.off:r.off+r.n]) {
			t.Errorf("Read(%#x, %d) = % x, want % x", r.off, r.n, got, want[r.off:r.off+r.n])
		}
	}
	// A read running off the device fills only the bytes below Size.
	tail := []byte{0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee}
	f.Read(FlashSize-4, tail)
	if !bytes.Equal(tail, []byte{0, 0, 0, 0, 0xee, 0xee, 0xee, 0xee}) {
		t.Errorf("read across the device end = % x", tail)
	}
}

// TestFlashBankLatencyFullRange pins each bank's latency at its first and
// last offset: banks split the full 1 MiB by offset, whatever range the
// programs occupy.
func TestFlashBankLatencyFullRange(t *testing.T) {
	lat := []int{8, 9, 10, 9}
	f := NewFlash(FlashSize, lat)
	if err := f.LoadWords(0x1000, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	bank := uint32(FlashSize / len(lat))
	for i, want := range lat {
		first, last := uint32(i)*bank, uint32(i+1)*bank-1
		if got := f.AccessCycles(first, 16); got != want {
			t.Errorf("bank %d first offset %#x: latency %d, want %d", i, first, got, want)
		}
		if got := f.AccessCycles(last, 1); got != want {
			t.Errorf("bank %d last offset %#x: latency %d, want %d", i, last, got, want)
		}
	}
}

// TestFlashLoadRanges loads past the device end, which is refused, then
// a second program below the first one, which keeps both, then one inside
// the first program and one overlapping its start across a page
// boundary, which replace only the words they load.
func TestFlashLoadRanges(t *testing.T) {
	f := NewFlash(FlashSize, []int{8, 9, 10, 9})
	if err := f.LoadWords(FlashSize-4, []uint32{1, 2}); err == nil {
		t.Error("load past FlashSize accepted")
	}
	if err := f.LoadWords(FlashSize, []uint32{1}); err == nil {
		t.Error("load at FlashSize accepted")
	}
	if err := f.LoadWords(0x2_1000, []uint32{0xaaaa, 0xbbbb}); err != nil {
		t.Fatal(err)
	}
	if err := f.LoadWords(0x1000, []uint32{0xcccc}); err != nil {
		t.Fatal(err)
	}
	if err := f.LoadWords(0x2_100c, []uint32{0xdddd}); err != nil {
		t.Fatal(err)
	}
	if err := f.LoadWords(0x2_0ff8, []uint32{0xeeee, 0xffff, 0x1111}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ off, v uint32 }{
		{0x2_0ff8, 0xeeee}, {0x2_0ffc, 0xffff}, {0x2_1000, 0x1111}, {0x2_1004, 0xbbbb},
		{0x2_100c, 0xdddd}, {0x1000, 0xcccc}, {0x1004, 0}, {0x1_1000, 0}, {0x2_1008, 0},
		{0x2_0ff4, 0}, {0xffc, 0},
	} {
		if got := ReadWord(f, w.off); got != w.v {
			t.Errorf("word at %#x = %#x, want %#x", w.off, got, w.v)
		}
	}
}

// TestWholeLines requires every array WholeLines returns to start on a
// 64-byte host line and span whole lines: a pointer array over 512
// bytes, such as the flash's 2 KiB page table, which the allocator starts
// behind an 8-byte type header; pointer-free arrays; and arrays of
// pointer-holding elements 16 and 24 bytes in size.
func TestWholeLines(t *testing.T) {
	for _, n := range []int{1, 3, 64, 65, 256, 1000} {
		checkWholeLines[*page](t, n)
		checkWholeLines[uint64](t, n)
		checkWholeLines[byte](t, n)
		checkWholeLines[string](t, n)
		checkWholeLines[[]byte](t, n)
	}
}

func checkWholeLines[T any](t *testing.T, n int) {
	t.Helper()
	s := WholeLines[T](n)
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	size := uintptr(cap(s)) * unsafe.Sizeof(*new(T))
	if len(s) != n || addr%hostLine != 0 || size%hostLine != 0 {
		t.Errorf("WholeLines[%T](%d): %d elements at %#x, %d bytes of capacity", *new(T), n, len(s), addr, size)
	}
}
