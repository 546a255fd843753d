package soc

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bus"
	"repro/internal/isa"
	"repro/internal/mem"
)

func loadAndStart(t *testing.T, s *SoC, id int, src string, base uint32) *asm.Program {
	t.Helper()
	b, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Assemble(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	s.Start(id, p.Base)
	return p
}

func TestSingleCoreRunsToCompletion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores[1].Active = false
	cfg.Cores[2].Active = false
	s := New(cfg)
	loadAndStart(t, s, 0, `
		addi r1, r0, 21
		add  r2, r1, r1
		halt
	`, CodeLow)
	res := s.Run(100_000)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if got := s.Cores[0].Core.Reg(2); got != 42 {
		t.Errorf("r2 = %d", got)
	}
}

func TestThreeCoresIndependentPrograms(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg)
	for id := 0; id < NumCores; id++ {
		loadAndStart(t, s, id, `
			csrr r1, coreid
			addi r2, r1, 100
			halt
		`, CodeLow+uint32(id)*0x1000)
	}
	res := s.Run(200_000)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	for id := 0; id < NumCores; id++ {
		if got := s.Cores[id].Core.Reg(2); got != uint32(100+id) {
			t.Errorf("core %d: r2 = %d", id, got)
		}
	}
}

func TestSRAMSharingThroughUncachedAlias(t *testing.T) {
	// Core 0 writes a flag through the uncached alias; core 1 spins on it.
	cfg := DefaultConfig()
	cfg.Cores[2].Active = false
	cfg.Cores[0].CachesOn = true
	cfg.Cores[1].CachesOn = true
	cfg.Cores[0].WriteAlloc = true
	cfg.Cores[1].WriteAlloc = true
	s := New(cfg)
	loadAndStart(t, s, 0, `
		li   r1, 0x28000100   ; uncached alias
		addi r2, r0, 7
		; burn some time first
		addi r3, r0, 50
	delay:
		addi r3, r3, -1
		bne  r3, r0, delay
		sw   r2, 0(r1)
		halt
	`, CodeLow)
	loadAndStart(t, s, 1, `
		li   r1, 0x28000100
	spin:
		lw   r2, 0(r1)
		beq  r2, r0, spin
		halt
	`, CodeLow+0x2000)
	res := s.Run(500_000)
	if res.TimedOut {
		t.Fatal("spin never satisfied: uncached alias broken")
	}
	if got := s.Cores[1].Core.Reg(2); got != 7 {
		t.Errorf("flag = %d", got)
	}
	if got := mem.ReadWord(s.SRAM, 0x100); got != 7 {
		t.Errorf("SRAM backing = %d", got)
	}
}

func TestTCMPrivacy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores[2].Active = false
	s := New(cfg)
	// Core 0 writes its own DTCM; core 1 reads the same offset of its own.
	loadAndStart(t, s, 0, `
		li r1, 0x30000000
		addi r2, r0, 99
		sw r2, 16(r1)
		halt
	`, CodeLow)
	loadAndStart(t, s, 1, `
		li r1, 0x30010000
		lw r2, 16(r1)
		halt
	`, CodeLow+0x2000)
	if res := s.Run(100_000); res.TimedOut {
		t.Fatal("timeout")
	}
	if got := s.Cores[1].Core.Reg(2); got == 99 {
		t.Error("core 1 observed core 0's DTCM contents")
	}
	if got := mem.ReadWord(s.Cores[0].DTCM, 16); got != 99 {
		t.Errorf("core 0 DTCM = %d", got)
	}
}

func TestCinvInvalidatesCaches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores[0].CachesOn = true
	cfg.Cores[0].WriteAlloc = true
	cfg.Cores[1].Active = false
	cfg.Cores[2].Active = false
	s := New(cfg)
	loadAndStart(t, s, 0, `
		li r1, 0x20000040
		lw r2, 0(r1)     ; pull a line into the D-cache
		cinv both
		halt
	`, CodeLow)
	if res := s.Run(100_000); res.TimedOut {
		t.Fatal("timeout")
	}
	if n := s.Cores[0].DCache.ResidentLines(); n != 0 {
		t.Errorf("%d lines survived cinv", n)
	}
	if n := s.Cores[0].ICache.ResidentLines(); n != 0 {
		t.Errorf("%d I-lines survived cinv", n)
	}
	if s.Cores[0].ICache.Stats().Invalidates == 0 {
		t.Error("invalidate not recorded")
	}
}

func TestExecuteFromITCM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores[1].Active = false
	cfg.Cores[2].Active = false
	s := New(cfg)
	// Hand-place a tiny program in the ITCM: addi r5, r0, 77; jr r31.
	itcm := s.Cores[0].ITCM
	mem.WriteWord(itcm, 0, isa.MustEncode(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 77}))
	mem.WriteWord(itcm, 4, isa.MustEncode(isa.Inst{Op: isa.OpJR, Rs1: 31}))
	loadAndStart(t, s, 0, `
		li   r2, 0x34000000
		jalr r31, r2
		halt
	`, CodeLow)
	if res := s.Run(100_000); res.TimedOut {
		t.Fatal("timeout")
	}
	if got := s.Cores[0].Core.Reg(5); got != 77 {
		t.Errorf("r5 = %d; ITCM execution failed", got)
	}
}

func TestStartDelayHoldsCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores[1].Active = false
	cfg.Cores[2].Active = false
	cfg.Cores[0].StartDelay = 50
	s := New(cfg)
	loadAndStart(t, s, 0, "halt", CodeLow)
	res := s.Run(100_000)
	if res.Cycles <= 50 {
		t.Errorf("core finished in %d cycles despite 50-cycle hold", res.Cycles)
	}
}

func TestDeterminismAcrossIdenticalSoCs(t *testing.T) {
	build := func() int64 {
		cfg := DefaultConfig()
		s := New(cfg)
		for id := 0; id < NumCores; id++ {
			loadAndStart(t, s, id, `
				li   r29, 0x20001000
				addi r1, r0, 40
			loop:
				sw   r1, 0(r29)
				lw   r2, 0(r29)
				addi r1, r1, -1
				bne  r1, r0, loop
				halt
			`, CodeLow+uint32(id)*0x1000)
		}
		res := s.Run(1_000_000)
		if res.TimedOut {
			t.Fatal("timeout")
		}
		return res.Cycles
	}
	if a, b := build(), build(); a != b {
		t.Errorf("identical SoCs diverged: %d vs %d cycles", a, b)
	}
}

func TestBusContentionVisibleInStats(t *testing.T) {
	run := func(n int) float64 {
		cfg := DefaultConfig()
		for id := 0; id < NumCores; id++ {
			cfg.Cores[id].Active = id < n
		}
		s := New(cfg)
		for id := 0; id < n; id++ {
			loadAndStart(t, s, id, `
				addi r1, r0, 200
			loop:
				addi r1, r1, -1
				bne  r1, r0, loop
				halt
			`, CodeLow+uint32(id)*0x1000)
		}
		if res := s.Run(2_000_000); res.TimedOut {
			t.Fatal("timeout")
		}
		return s.Bus.Utilization()
	}
	u1, u3 := run(1), run(3)
	if u3 <= u1 {
		t.Errorf("bus utilization did not grow with cores: %f vs %f", u1, u3)
	}
}

// TestResetStartAllocationFree pins that rewinding and restarting a loaded
// SoC reuses its stepping list: after the first start, Reset + Start
// allocates nothing, and the list stays in core-ID order whatever order
// the cores start in.
func TestResetStartAllocationFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores[2].Active = false
	s := New(cfg)
	p1 := loadAndStart(t, s, 1, "halt", CodeLow+0x1000)
	p0 := loadAndStart(t, s, 0, "halt", CodeLow)
	s.SealBaseline()
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		s.Start(1, p1.Base)
		s.Start(0, p0.Base)
	})
	if allocs != 0 {
		t.Errorf("Reset + Start allocated %v times, want 0", allocs)
	}
	if len(s.running) != 2 || s.running[0] != s.Cores[0] || s.running[1] != s.Cores[1] {
		t.Error("stepping list not in core-ID order after out-of-order starts")
	}
}

func TestLoadRejectsOutsideFlash(t *testing.T) {
	s := New(DefaultConfig())
	b, _ := asm.Parse("halt")
	p, _ := b.Assemble(0x4000_0000) // not a flash address
	if err := s.Load(p); err == nil {
		t.Error("out-of-flash load accepted")
	}
}

func TestActiveCountAndCycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores[2].Active = false
	s := New(cfg)
	loadAndStart(t, s, 0, "halt", CodeLow)
	s.Run(1000)
	if s.Cycle() == 0 {
		t.Error("cycle counter did not advance")
	}
}

func TestAttachRecorderCapturesOtherCores(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg)
	rec := s.AttachRecorder(0)
	for id := 0; id < NumCores; id++ {
		loadAndStart(t, s, id, `
			li r1, 0x20004000
			lw r2, 0(r1)
			halt
		`, CodeLow+uint32(id)*0x1000)
	}
	if res := s.Run(100_000); res.TimedOut {
		t.Fatal("timeout")
	}
	byMaster := rec.EventsByMaster()
	if len(byMaster) < 2 {
		t.Errorf("expected several source masters, got %d", len(byMaster))
	}
	for _, log := range byMaster {
		if len(log) == 0 {
			t.Fatal("an empty master log")
		}
		for _, e := range log {
			if e.Master == 0 || e.Master == 1 {
				t.Fatalf("recorded the excluded core's master %d", e.Master)
			}
			if e.Master != log[0].Master {
				t.Fatalf("master %d's log holds an event of master %d", log[0].Master, e.Master)
			}
		}
	}
}

func TestReplayMastersProduceContention(t *testing.T) {
	// Record two cores' traffic, then replay it against a single core and
	// verify the bus sees comparable pressure. The workload is
	// straight-line so fetch pressure maps directly onto IF stalls (with
	// taken branches, contention can even *reduce* stalls by letting
	// wrong-path prefetches be cancelled while still queued).
	body := strings.Repeat("addi r1, r1, 1\n", 240) + "halt\n"
	cfg := DefaultConfig()
	s := New(cfg)
	rec := s.AttachRecorder(0)
	for id := 0; id < NumCores; id++ {
		loadAndStart(t, s, id, body, CodeLow+uint32(id)*0x1000)
	}
	if res := s.Run(2_000_000); res.TimedOut {
		t.Fatal("timeout")
	}
	fullStall := s.Cores[0].Core.Counter(2) // IF stalls

	run1 := func(replay [][]bus.TrafficEvent) uint64 {
		c := DefaultConfig()
		c.Cores[1].Active = false
		c.Cores[2].Active = false
		c.Replay = replay
		s := New(c)
		loadAndStart(t, s, 0, body, CodeLow)
		if res := s.Run(2_000_000); res.TimedOut {
			t.Fatal("timeout")
		}
		return s.Cores[0].Core.Counter(2)
	}
	replayStall := run1(rec.EventsByMaster())
	soloStall := run1(nil)

	if replayStall <= soloStall {
		t.Errorf("replay produced no contention: replay=%d solo=%d", replayStall, soloStall)
	}
	// Within a factor of two of the genuine three-core pressure.
	if replayStall*2 < fullStall || replayStall > fullStall*2 {
		t.Errorf("replay pressure %d far from full-system %d", replayStall, fullStall)
	}
}
