package cache

import (
	"math/rand"
	"testing"

	"repro/internal/bus"
	"repro/internal/mem"
)

func smallCfg(writeAlloc bool) Config {
	return Config{SizeBytes: 256, Ways: 2, LineBytes: 16, WriteAlloc: writeAlloc}
}

func TestConfigValidate(t *testing.T) {
	if err := ICacheConfig().Validate(); err != nil {
		t.Error(err)
	}
	if err := DCacheConfig(true).Validate(); err != nil {
		t.Error(err)
	}
	bad := []Config{
		{SizeBytes: 100, Ways: 2, LineBytes: 16},
		{SizeBytes: 256, Ways: 0, LineBytes: 16},
		{SizeBytes: 256, Ways: 2, LineBytes: 12},
		{SizeBytes: 96, Ways: 2, LineBytes: 16}, // 3 sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestFillReadWrite(t *testing.T) {
	c := New(smallCfg(true))
	line := make([]byte, 16)
	for i := range line {
		line[i] = byte(i)
	}
	c.Fill(0x100, 0, line)
	if !c.Contains(0x104) || c.Contains(0x114) {
		t.Error("Contains wrong")
	}
	if v, hit := c.Read(0x104, 4); !hit || v != 0x07060504 {
		t.Errorf("read = %#x hit=%v", v, hit)
	}
	if hit := c.Write(0x108, 0xAABBCCDD, 4); !hit {
		t.Error("write missed resident line")
	}
	if v, _ := c.Read(0x108, 4); v != 0xAABBCCDD {
		t.Errorf("readback = %#x", v)
	}
	if _, hit := c.Read(0x200, 4); hit {
		t.Error("phantom hit")
	}
}

func TestLRUVictimAndWriteback(t *testing.T) {
	c := New(smallCfg(true)) // 8 sets, 2 ways
	line := make([]byte, 16)
	// Two lines mapping to set 0: addresses 0x000 and 0x080 (8 sets * 16B).
	c.Fill(0x000, mustVictim(c, 0x000), line)
	c.Fill(0x080, mustVictim(c, 0x080), line)
	// Touch 0x000 so 0x080 becomes LRU.
	c.Read(0x000, 4)
	c.Write(0x080, 1, 4)                      // dirty the LRU line... but this touches it too
	c.Read(0x000, 4)                          // make 0x000 MRU again
	way, wbAddr, _, needWB := c.Victim(0x100) // third line in set 0
	if !needWB {
		t.Fatal("expected dirty victim write-back")
	}
	if wbAddr != 0x080 {
		t.Errorf("victim addr %#x, want 0x080", wbAddr)
	}
	c.Fill(0x100, way, line)
	if c.Contains(0x080) {
		t.Error("victim still resident")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Writebacks != 1 {
		t.Errorf("stats %+v", st)
	}
}

func mustVictim(c *Cache, addr uint32) int {
	way, _, _, _ := c.Victim(addr)
	return way
}

func TestInvalidateAll(t *testing.T) {
	c := New(smallCfg(true))
	line := make([]byte, 16)
	c.Fill(0x0, 0, line)
	c.Fill(0x10, 0, line)
	if c.ResidentLines() != 2 {
		t.Fatalf("resident %d", c.ResidentLines())
	}
	c.InvalidateAll()
	if c.ResidentLines() != 0 {
		t.Error("lines survived invalidate")
	}
	if c.Stats().Invalidates != 1 {
		t.Error("invalidate not counted")
	}
}

// busFixture builds a bus with an SRAM at 0x2000_0000 and a flash at 0.
func busFixture(nMasters int) (*bus.Bus, *mem.RAM, *mem.Flash) {
	ram := mem.NewRAM(64<<10, 2)
	flash := mem.NewFlash(64<<10, []int{8})
	b := bus.New(nMasters, bus.RoundRobin, []bus.Region{
		{Base: 0x0000_0000, Size: 64 << 10, Dev: flash},
		{Base: 0x2000_0000, Size: 64 << 10, Dev: ram},
	})
	return b, ram, flash
}

// drive runs an access through a client, stepping the bus, and returns
// (cycles, data).
func drive(t *testing.T, b *bus.Bus, cl Client, addr uint32, write bool, wdata uint64, size int) (int, uint64) {
	t.Helper()
	cl.Start(addr, write, wdata, size)
	// Same-cycle attempt (hit path).
	if done, v := cl.Tick(); done {
		return 1, v
	}
	for i := 2; i < 200; i++ {
		b.Step()
		if done, v := cl.Tick(); done {
			return i, v
		}
	}
	t.Fatal("access did not complete")
	return 0, 0
}

func TestCtrlMissThenHit(t *testing.T) {
	b, ram, _ := busFixture(1)
	mem.WriteWord(ram, 0x40, 0x11223344)
	c := NewCtrl(New(smallCfg(true)), b.PortFor(0))

	cyc, v := drive(t, b, c, 0x2000_0040, false, 0, 4)
	if v != 0x11223344 {
		t.Errorf("miss read = %#x", v)
	}
	if cyc < 3 {
		t.Errorf("miss served in %d cycles; too fast for a bus refill", cyc)
	}
	cyc2, v2 := drive(t, b, c, 0x2000_0044, false, 0, 4)
	if cyc2 != 1 {
		t.Errorf("hit took %d cycles, want 1", cyc2)
	}
	if v2 != 0 {
		t.Errorf("hit read = %#x, want 0", v2)
	}
	st := c.Cache().Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestCtrlWriteAllocateKeepsStoreLocal(t *testing.T) {
	b, ram, _ := busFixture(1)
	c := NewCtrl(New(smallCfg(true)), b.PortFor(0))
	drive(t, b, c, 0x2000_0080, true, 0xDEAD, 4) // write miss -> refill + local write
	if mem.ReadWord(ram, 0x80) == 0xDEAD {
		t.Error("write-back cache leaked store to memory immediately")
	}
	if _, v := drive(t, b, c, 0x2000_0080, false, 0, 4); v != 0xDEAD {
		t.Errorf("readback = %#x", v)
	}
	// Write hit must complete in one cycle.
	if cyc, _ := drive(t, b, c, 0x2000_0084, true, 7, 4); cyc != 1 {
		t.Errorf("write hit took %d cycles", cyc)
	}
}

func TestCtrlNoWriteAllocateWritesAround(t *testing.T) {
	b, ram, _ := busFixture(1)
	c := NewCtrl(New(smallCfg(false)), b.PortFor(0))
	drive(t, b, c, 0x2000_0080, true, 0xBEEF, 4)
	if got := mem.ReadWord(ram, 0x80); got != 0xBEEF {
		t.Errorf("write-around did not reach memory: %#x", got)
	}
	if c.Cache().Contains(0x2000_0080) {
		t.Error("no-write-allocate cache allocated on write miss")
	}
	// A read of that line must now miss (the paper's dummy-load rule exists
	// exactly because of this behaviour).
	if cyc, v := drive(t, b, c, 0x2000_0080, false, 0, 4); v != 0xBEEF || cyc < 3 {
		t.Errorf("read after write-around: cyc=%d v=%#x", cyc, v)
	}
}

func TestCtrlDirtyEvictionWritesBack(t *testing.T) {
	b, ram, _ := busFixture(1)
	cfg := smallCfg(true) // 8 sets, 2 ways: 0x000,0x080,0x100 all map to set 0
	c := NewCtrl(New(cfg), b.PortFor(0))
	drive(t, b, c, 0x2000_0000, true, 0x111, 4)
	drive(t, b, c, 0x2000_0080, true, 0x222, 4)
	drive(t, b, c, 0x2000_0100, false, 0, 4) // evicts 0x000 (LRU, dirty)
	if got := mem.ReadWord(ram, 0x0); got != 0x111 {
		t.Errorf("write-back lost: mem=%#x", got)
	}
	// 0x080 still cached and dirty, not yet in memory.
	if got := mem.ReadWord(ram, 0x80); got == 0x222 {
		t.Error("non-victim line written back")
	}
}

func TestBypassLineBufferTiming(t *testing.T) {
	b, _, flash := busFixture(1)
	flash.LoadWords(0, []uint32{1, 2, 3, 4, 5, 6, 7, 8})
	cl := NewBypass(b.PortFor(0), true)
	cyc, v := drive(t, b, cl, 0x0, false, 0, 4)
	if v != 1 {
		t.Errorf("word0 = %d", v)
	}
	if cyc < 9 { // flash latency 8 + arbitration
		t.Errorf("first fetch took %d cycles, want >= 9", cyc)
	}
	// Same line: single cycle.
	if cyc, v := drive(t, b, cl, 0xC, false, 0, 4); cyc != 1 || v != 4 {
		t.Errorf("in-line fetch cyc=%d v=%d", cyc, v)
	}
	// Next line: slow again.
	if cyc, v := drive(t, b, cl, 0x10, false, 0, 4); cyc < 9 || v != 5 {
		t.Errorf("next-line fetch cyc=%d v=%d", cyc, v)
	}
}

func TestBypassUnbufferedDataPath(t *testing.T) {
	b, ram, _ := busFixture(1)
	mem.WriteWord(ram, 0x20, 42)
	cl := NewBypass(b.PortFor(0), false)
	if _, v := drive(t, b, cl, 0x2000_0020, false, 0, 4); v != 42 {
		t.Errorf("read = %d", v)
	}
	drive(t, b, cl, 0x2000_0024, true, 99, 4)
	if mem.ReadWord(ram, 0x24) != 99 {
		t.Error("write lost")
	}
}

func TestTCMClientSingleCycle(t *testing.T) {
	tcm := mem.NewTCM(1024)
	cl := NewTCMClient(tcm, 0x3000_0000)
	cl.Start(0x3000_0010, true, 0x55AA, 4)
	if done, _ := cl.Tick(); !done {
		t.Fatal("TCM write not single cycle")
	}
	cl.Start(0x3000_0010, false, 0, 4)
	done, v := cl.Tick()
	if !done || v != 0x55AA {
		t.Errorf("TCM read done=%v v=%#x", done, v)
	}
	// Out-of-range access returns open-bus ones, no panic.
	cl.Start(0x3000_0000+2048, false, 0, 4)
	if _, v := cl.Tick(); v == 0 {
		t.Error("out-of-range TCM read returned zero")
	}
}

// TestTCMClientAllocationFree pins that a TCM access completes without a
// heap allocation: the client's access buffer lives on its stack.
func TestTCMClientAllocationFree(t *testing.T) {
	cl := NewTCMClient(mem.NewTCM(1024), 0x3000_0000)
	allocs := testing.AllocsPerRun(100, func() {
		cl.Start(0x3000_0010, true, 0x55AA, 4)
		cl.Tick()
		cl.Start(0x3000_0010, false, 0, 4)
		cl.Tick()
	})
	if allocs != 0 {
		t.Errorf("TCM write + read allocated %v times, want 0", allocs)
	}
}

func TestClientAlignment(t *testing.T) {
	tcm := mem.NewTCM(1024)
	cl := NewTCMClient(tcm, 0)
	cl.Start(0x13, true, 0x77, 4) // misaligned: truncated to 0x10
	cl.Tick()
	cl.Start(0x10, false, 0, 4)
	if _, v := cl.Tick(); v != 0x77 {
		t.Errorf("aligned truncation broken: %#x", v)
	}
}

func TestPairAccess64(t *testing.T) {
	b, _, _ := busFixture(1)
	c := NewCtrl(New(smallCfg(true)), b.PortFor(0))
	drive(t, b, c, 0x2000_0008, true, 0x1122334455667788, 8)
	if _, v := drive(t, b, c, 0x2000_0008, false, 0, 8); v != 0x1122334455667788 {
		t.Errorf("64-bit readback = %#x", v)
	}
	if _, v := drive(t, b, c, 0x2000_000C, false, 0, 4); v != 0x11223344 {
		t.Errorf("high word = %#x", v)
	}
}

// Property: a cache in front of a memory must behave exactly like the
// memory alone for any access sequence (single master, so no coherence
// concerns).
func TestCacheCoherentWithMemoryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		b, _, _ := busFixture(1)
		c := NewCtrl(New(smallCfg(trial%2 == 0)), b.PortFor(0))
		ref := make(map[uint32]uint64) // word-addressed reference model
		for op := 0; op < 300; op++ {
			addr := 0x2000_0000 + uint32(rng.Intn(64))*4 // small window forces evictions
			if rng.Intn(2) == 0 {
				v := uint64(rng.Uint32())
				drive(t, b, c, addr, true, v, 4)
				ref[addr] = v
			} else {
				_, v := drive(t, b, c, addr, false, 0, 4)
				if want := ref[addr]; v != want {
					t.Fatalf("trial %d op %d: read %#x = %#x, want %#x",
						trial, op, addr, v, want)
				}
			}
		}
	}
}
