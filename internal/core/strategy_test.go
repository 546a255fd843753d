package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/soc"
)

const maxRun = 3_000_000

func dataBaseFor(coreID int) uint32 { return mem.SRAMBase + 0x1000*uint32(coreID+1) }

func codeBaseFor(coreID int) uint32 { return soc.CodeLow + 0x4000*uint32(coreID) }

// cfg builds a SoC configuration with the first n cores active.
func cfg(n int, cached, writeAlloc bool, delays [soc.NumCores]int) soc.Config {
	c := soc.DefaultConfig()
	for id := 0; id < soc.NumCores; id++ {
		c.Cores[id].Active = id < n
		c.Cores[id].CachesOn = cached
		c.Cores[id].WriteAlloc = writeAlloc
		c.Cores[id].StartDelay = delays[id]
	}
	return c
}

// jobsSameRoutine builds one job per active core, each with its own code
// copy and data area.
func jobsSameRoutine(n int, mk func(coreID int) *sbst.Routine, strat func(coreID int) Strategy) [soc.NumCores]*CoreJob {
	var jobs [soc.NumCores]*CoreJob
	for id := 0; id < n; id++ {
		jobs[id] = &CoreJob{
			Routine:  mk(id),
			Strategy: strat(id),
			CodeBase: codeBaseFor(id),
		}
	}
	return jobs
}

func hdcuRoutine(coreID int) *sbst.Routine {
	return sbst.NewHDCUTest(sbst.HDCUOptions{DataBase: dataBaseFor(coreID)})
}

func fwdRoutine(coreID int) *sbst.Routine {
	return sbst.NewForwardingTest(sbst.ForwardingOptions{DataBase: dataBaseFor(coreID)})
}

func icuRoutine(coreID int) *sbst.Routine {
	return sbst.NewICUTest(sbst.ICUOptions{DataBase: dataBaseFor(coreID)})
}

// TestStrategyByName pins StrategyByName as the inverse of Strategy.Name:
// each strategy's name resolves to it in the form the paper runs it, on
// the given core, and an unknown name is an error.
func TestStrategyByName(t *testing.T) {
	for _, want := range []Strategy{Plain{}, CacheBased{WriteAllocate: true}, TCMBased{CoreID: 2}} {
		got, err := StrategyByName(want.Name(), 2)
		if err != nil || got != want {
			t.Errorf("StrategyByName(%q, 2) = %#v, %v; want %#v", want.Name(), got, err, want)
		}
	}
	if s, err := StrategyByName("dram", 0); err == nil {
		t.Errorf(`StrategyByName("dram", 0) = %#v, want an error`, s)
	}
}

func TestPlainSingleCoreStable(t *testing.T) {
	for run := 0; run < 2; run++ {
		res, _, err := RunSingle(cfg(1, false, true, [3]int{}), 0,
			&CoreJob{Routine: hdcuRoutine(0), Strategy: Plain{}, CodeBase: soc.CodeLow},
			maxRun)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("run failed: %+v", res)
		}
		if res.Signature == 0 {
			t.Fatal("zero signature")
		}
	}
	// Identical runs give identical signatures by determinism of the
	// whole simulator; cross-checked in the multi-run tests below.
}

func TestCacheStrategyDeterministicAcrossScenarios(t *testing.T) {
	// The HDCU routine folds stall-counter deltas: the most
	// timing-sensitive signature. Under the cache-based strategy it must
	// be identical for every start-phase and alignment scenario.
	sigs := map[uint32]bool{}
	for _, delays := range [][soc.NumCores]int{
		{0, 0, 0}, {0, 7, 13}, {5, 0, 23}, {11, 17, 0},
	} {
		for _, pad := range []uint32{0, 4, 8} {
			jobs := jobsSameRoutine(3, hdcuRoutine,
				func(int) Strategy { return CacheBased{WriteAllocate: true} })
			for _, j := range jobs {
				j.AlignPad = pad
			}
			results, _, err := RunJobs(cfg(3, true, true, delays), jobs, maxRun)
			if err != nil {
				t.Fatal(err)
			}
			for id, r := range results {
				if !r.OK {
					t.Fatalf("core %d failed: %+v", id, r)
				}
			}
			sigs[results[0].Signature] = true
		}
	}
	if len(sigs) != 1 {
		t.Errorf("cache-based signature unstable across scenarios: %d distinct values", len(sigs))
	}
}

// unstableScenarios enumerates SoC configurations the way the paper's
// experiments did: active-core start phase, code position in flash
// (low/mid/high banks with different wait states) and code alignment.
type scenario struct {
	delays [soc.NumCores]int
	bases  [soc.NumCores]uint32
	pad    uint32
}

func unstableScenarios() []scenario {
	low3 := [soc.NumCores]uint32{soc.CodeLow, soc.CodeLow + 0x4000, soc.CodeLow + 0x8000}
	mix := [soc.NumCores]uint32{soc.CodeLow, soc.CodeMid, soc.CodeHigh}
	rot := [soc.NumCores]uint32{soc.CodeMid, soc.CodeHigh, soc.CodeLow}
	return []scenario{
		{[soc.NumCores]int{0, 0, 0}, low3, 0},
		{[soc.NumCores]int{0, 7, 13}, low3, 4},
		{[soc.NumCores]int{0, 0, 0}, mix, 0},
		{[soc.NumCores]int{5, 0, 23}, mix, 8},
		{[soc.NumCores]int{0, 0, 0}, rot, 12},
		{[soc.NumCores]int{11, 17, 0}, rot, 4},
	}
}

func runScenario(t *testing.T, sc scenario, mk func(int) *sbst.Routine, strat func(int) Strategy, cached bool) [soc.NumCores]*RunResult {
	t.Helper()
	var jobs [soc.NumCores]*CoreJob
	for id := 0; id < 3; id++ {
		jobs[id] = &CoreJob{
			Routine:  mk(id),
			Strategy: strat(id),
			CodeBase: sc.bases[id],
			AlignPad: sc.pad,
		}
	}
	results, _, err := RunJobs(cfg(3, cached, true, sc.delays), jobs, maxRun)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestPlainMulticoreUnstable(t *testing.T) {
	// Without the strategy, the same routine produces different signatures
	// depending on the SoC configuration (start phase, code position,
	// alignment) — the failure mode motivating the paper. A stable golden
	// signature therefore cannot exist.
	sigs := map[uint32]bool{}
	for _, sc := range unstableScenarios() {
		results := runScenario(t, sc, hdcuRoutine, func(int) Strategy { return Plain{} }, false)
		sigs[results[0].Signature] = true
	}
	if len(sigs) < 2 {
		t.Error("plain multi-core execution unexpectedly produced a stable signature")
	}
}

func TestPlainMulticoreDiffersFromSingleCoreGolden(t *testing.T) {
	// Table III's premise: the golden signature is computed in a
	// single-core environment; in a multi-core run the routine "inevitably
	// fails", i.e. never reproduces that golden value.
	golden, _, err := RunSingle(cfg(1, false, true, [3]int{}), 0,
		&CoreJob{Routine: hdcuRoutine(0), Strategy: Plain{}, CodeBase: soc.CodeLow},
		maxRun)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range unstableScenarios() {
		sc.bases[0] = soc.CodeLow // the core under test keeps its position
		sc.pad = 0
		results := runScenario(t, sc, hdcuRoutine, func(int) Strategy { return Plain{} }, false)
		if results[0].Signature == golden.Signature {
			t.Errorf("scenario %d: multi-core run reproduced the single-core golden signature", i)
		}
	}
}

func TestCacheAndTCMSignaturesAgree(t *testing.T) {
	// Both strategies isolate execution from the bus: identical fetch and
	// data timing, identical architectural values, identical signature.
	// The ICU routine is excluded: it folds the (position-dependent)
	// saved resume PC, so its signature legitimately differs between a
	// flash-resident and a TCM-resident image — the paper's claim there is
	// equal fault coverage, not equal signatures.
	for _, mk := range []func(int) *sbst.Routine{fwdRoutine, hdcuRoutine} {
		cacheRes, _, err := RunSingle(cfg(1, true, true, [3]int{}), 0,
			&CoreJob{Routine: mk(0), Strategy: CacheBased{WriteAllocate: true}, CodeBase: soc.CodeLow},
			maxRun)
		if err != nil {
			t.Fatal(err)
		}
		tcmRes, _, err := RunSingle(cfg(1, false, true, [3]int{}), 0,
			&CoreJob{Routine: mk(0), Strategy: TCMBased{CoreID: 0}, CodeBase: soc.CodeLow},
			maxRun)
		if err != nil {
			t.Fatal(err)
		}
		if !cacheRes.OK || !tcmRes.OK {
			t.Fatalf("%s: cache %+v tcm %+v", mk(0).Name, cacheRes, tcmRes)
		}
		if cacheRes.Signature != tcmRes.Signature {
			t.Errorf("%s: cache sig %#x != tcm sig %#x",
				mk(0).Name, cacheRes.Signature, tcmRes.Signature)
		}
	}
}

func TestSplitChunksMatchSingleChunk(t *testing.T) {
	whole, _, err := RunSingle(cfg(1, true, true, [3]int{}), 0,
		&CoreJob{Routine: fwdRoutine(0), Strategy: CacheBased{WriteAllocate: true}, CodeBase: soc.CodeLow},
		maxRun)
	if err != nil {
		t.Fatal(err)
	}
	// Force splitting with an artificially small partition budget; the
	// physical cache stays 8 kB, so behaviour stays deterministic.
	split := CacheBased{WriteAllocate: true, ICacheBytes: 1 << 10}
	size, err := fwdRoutine(0).SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := split.partition(fwdRoutine(0), size)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	splitRes, _, err := RunSingle(cfg(1, true, true, [3]int{}), 0,
		&CoreJob{Routine: fwdRoutine(0), Strategy: split, CodeBase: soc.CodeLow},
		maxRun)
	if err != nil {
		t.Fatal(err)
	}
	if !whole.OK || !splitRes.OK {
		t.Fatalf("whole %+v split %+v", whole, splitRes)
	}
	if whole.Signature != splitRes.Signature {
		t.Errorf("split signature %#x != single-chunk %#x", splitRes.Signature, whole.Signature)
	}
}

func TestSplitDeterministicMulticore(t *testing.T) {
	split := CacheBased{WriteAllocate: true, ICacheBytes: 1 << 10}
	sigs := map[uint32]bool{}
	for _, delays := range [][soc.NumCores]int{{0, 0, 0}, {0, 9, 21}} {
		jobs := jobsSameRoutine(3, fwdRoutine, func(int) Strategy { return split })
		results, _, err := RunJobs(cfg(3, true, true, delays), jobs, maxRun)
		if err != nil {
			t.Fatal(err)
		}
		if !results[0].OK {
			t.Fatalf("failed: %+v", results[0])
		}
		sigs[results[0].Signature] = true
	}
	if len(sigs) != 1 {
		t.Error("chunked cache strategy unstable across scenarios")
	}
}

func TestNoWriteAllocateRequiresDummyLoads(t *testing.T) {
	r := sbst.NewForwardingTest(sbst.ForwardingOptions{DataBase: dataBaseFor(0)})
	s := CacheBased{WriteAllocate: false}
	if err := s.Validate(r); err == nil {
		t.Error("missing dummy loads accepted for no-write-allocate cache")
	}
	r2 := sbst.NewForwardingTest(sbst.ForwardingOptions{
		DataBase: dataBaseFor(0), DummyLoadAfterStore: true,
	})
	s2 := CacheBased{WriteAllocate: false, DummyLoadsPresent: true}
	if err := s2.Validate(r2); err != nil {
		t.Errorf("valid no-write-allocate setup rejected: %v", err)
	}
	res, _, err := RunSingle(cfg(1, true, false, [3]int{}), 0,
		&CoreJob{Routine: r2, Strategy: s2, CodeBase: soc.CodeLow}, maxRun)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("no-write-allocate run failed: %+v", res)
	}
}

func TestNoSplitRoutineRejectedWhenTooBig(t *testing.T) {
	r := icuRoutine(0)
	s := CacheBased{WriteAllocate: true, ICacheBytes: 256}
	if err := s.Validate(r); err == nil {
		t.Error("oversized NoSplit routine accepted")
	}
}

func TestICUCacheWrappedDeterministic(t *testing.T) {
	sigs := map[uint32]bool{}
	for _, delays := range [][soc.NumCores]int{{0, 0, 0}, {0, 13, 29}, {7, 3, 0}} {
		jobs := jobsSameRoutine(3, icuRoutine,
			func(int) Strategy { return CacheBased{WriteAllocate: true} })
		results, _, err := RunJobs(cfg(3, true, true, delays), jobs, maxRun)
		if err != nil {
			t.Fatal(err)
		}
		if !results[0].OK {
			t.Fatalf("icu run failed: %+v", results[0])
		}
		if results[0].Signature == 0 {
			t.Fatal("icu signature zero")
		}
		sigs[results[0].Signature] = true
	}
	if len(sigs) != 1 {
		t.Error("ICU cache-wrapped signature unstable")
	}
}

func TestICUPlainMulticoreUnstable(t *testing.T) {
	sigs := map[uint32]bool{}
	for _, sc := range unstableScenarios() {
		results := runScenario(t, sc, icuRoutine, func(int) Strategy { return Plain{} }, false)
		sigs[results[0].Signature] = true
	}
	if len(sigs) < 2 {
		t.Error("ICU plain multi-core signature unexpectedly stable")
	}
}

func TestForwardingExercisesAllPaths(t *testing.T) {
	res, s, err := RunSingle(cfg(1, true, true, [3]int{}), 0,
		&CoreJob{Routine: fwdRoutine(0), Strategy: CacheBased{WriteAllocate: true}, CodeBase: soc.CodeLow},
		maxRun)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("run failed: %+v", res)
	}
	use := s.Cores[0].Core.PathUse
	checks := []struct {
		lane, op, path int
		name           string
	}{
		{1, 0, fault.PathCascade, "cascade opA"},
		{1, 1, fault.PathCascade, "cascade opB"},
		{0, 0, fault.PathEXL0, "EXL0 lane0 opA"},
		{0, 1, fault.PathEXL1, "EXL1 lane0 opB"},
		{1, 0, fault.PathEXL0, "EXL0 lane1 opA"},
		{1, 1, fault.PathEXL1, "EXL1 lane1 opB"},
		{0, 0, fault.PathMEML0, "MEML0 lane0 opA"},
		{0, 1, fault.PathMEML1, "MEML1 lane0 opB"},
		{1, 0, fault.PathMEML1, "MEML1 lane1 opA"},
		{1, 1, fault.PathMEML0, "MEML0 lane1 opB"},
		{1, 0, fault.PathMEML0, "MEML0 lane1 opA"},
		{1, 1, fault.PathEXL0, "EXL0 lane1 opB"},
	}
	for _, c := range checks {
		if use[c.lane][c.op][c.path] == 0 {
			t.Errorf("path not exercised: %s", c.name)
		}
	}
}

func TestMemoryOverheads(t *testing.T) {
	r := icuRoutine(0)
	if ov, err := (CacheBased{WriteAllocate: true}).MemoryOverhead(r); err != nil || ov != 0 {
		t.Errorf("cache overhead = %d, %v; want 0", ov, err)
	}
	ov, err := (TCMBased{CoreID: 0}).MemoryOverhead(r)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := r.SizeBytes()
	if ov < size {
		t.Errorf("tcm overhead %d < routine size %d", ov, size)
	}
}

func TestTableIVShape(t *testing.T) {
	// TCM-based runs faster but reserves memory; cache-based is slightly
	// slower with zero overhead.
	r := icuRoutine(0)
	cacheRes, _, err := RunSingle(cfg(1, true, true, [3]int{}), 0,
		&CoreJob{Routine: icuRoutine(0), Strategy: CacheBased{WriteAllocate: true}, CodeBase: soc.CodeLow},
		maxRun)
	if err != nil {
		t.Fatal(err)
	}
	tcmRes, _, err := RunSingle(cfg(1, false, true, [3]int{}), 0,
		&CoreJob{Routine: icuRoutine(0), Strategy: TCMBased{CoreID: 0}, CodeBase: soc.CodeLow},
		maxRun)
	if err != nil {
		t.Fatal(err)
	}
	if !cacheRes.OK || !tcmRes.OK {
		t.Fatalf("cache %+v tcm %+v", cacheRes, tcmRes)
	}
	if cacheRes.Cycles <= tcmRes.Cycles {
		t.Errorf("expected cache-based (%d cycles) slower than TCM-based (%d cycles)",
			cacheRes.Cycles, tcmRes.Cycles)
	}
	tcmOv, _ := (TCMBased{CoreID: 0}).MemoryOverhead(r)
	if tcmOv == 0 {
		t.Error("tcm overhead zero")
	}
}

func TestRoutineSizesFitIcache(t *testing.T) {
	// The paper notes neither routine needed splitting on the 8 kB cache.
	for _, r := range []*sbst.Routine{fwdRoutine(0), hdcuRoutine(0), icuRoutine(0)} {
		size, err := r.SizeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if size+chunkOverheadBytes > 8<<10 {
			t.Errorf("%s: %d bytes does not fit the 8 kB I-cache", r.Name, size)
		}
		t.Logf("%s: %d bytes", r.Name, size)
	}
}

func TestCachePartitionExactFit(t *testing.T) {
	// A routine sized so that size + chunkOverheadBytes exactly equals the
	// partition budget must stay a single chunk; one instruction over must
	// split. This pins the boundary arithmetic of the splitting rule.
	r := fwdRoutine(0)
	size, err := r.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	exact := CacheBased{WriteAllocate: true, ICacheBytes: size + chunkOverheadBytes}
	chunks, err := exact.partition(r, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 {
		t.Errorf("exactly-cache-sized routine split into %d chunks", len(chunks))
	}
	// Below the exact fit the early single-chunk exit no longer applies;
	// shrink the budget under the blocks' own footprint (the plain-form
	// size includes a prologue the per-block packing does not) so the
	// packing loop must actually split.
	sumBlocks := 0
	for _, blk := range r.Blocks {
		bs, err := blockSize(blk)
		if err != nil {
			t.Fatal(err)
		}
		sumBlocks += bs
	}
	over := CacheBased{WriteAllocate: true, ICacheBytes: sumBlocks + chunkOverheadBytes - int(isa.InstBytes)}
	chunks, err = over.partition(r, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Errorf("one-instruction-over routine stayed in %d chunk(s)", len(chunks))
	}
	// The exact fit must also validate and run.
	if err := exact.Validate(r); err != nil {
		t.Errorf("exact fit rejected: %v", err)
	}
	res, _, err := RunSingle(cfg(1, true, true, [3]int{}), 0,
		&CoreJob{Routine: fwdRoutine(0), Strategy: exact, CodeBase: soc.CodeLow}, maxRun)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("exact-fit run failed: %+v", res)
	}
}

// oversizedRoutine emits more straight-line code than one TCM can hold.
func oversizedRoutine() *sbst.Routine {
	r := &sbst.Routine{Name: "huge", Target: "huge", DataBase: dataBaseFor(0)}
	r.Blocks = []sbst.Block{{Name: "pad", Emit: func(b *asm.Builder) {
		for i := 0; i < mem.TCMSize/int(isa.InstBytes); i++ {
			b.I(isa.OpADDI, 1, 1, 1)
		}
		b.Misr(1)
	}}}
	return r
}

func TestTCMRejectsOversizedRoutine(t *testing.T) {
	// A routine larger than the ITCM has no TCM deployment: Emit and
	// MemoryOverhead must both reject it (an overhead figure for an
	// unplaceable routine would silently corrupt Table IV accounting).
	r := oversizedRoutine()
	s := TCMBased{CoreID: 0}
	if err := s.Emit(asm.NewBuilder(), r); err == nil {
		t.Error("oversized routine accepted by Emit")
	}
	if _, err := s.MemoryOverhead(r); err == nil {
		t.Error("oversized routine got a MemoryOverhead figure")
	}
	// Oversized data alone must reject the same way.
	rd := fwdRoutine(0)
	rd.ScratchBytes = mem.TCMSize + 4
	if err := s.Emit(asm.NewBuilder(), rd); err == nil {
		t.Error("oversized data accepted by Emit")
	}
	if _, err := s.MemoryOverhead(rd); err == nil {
		t.Error("oversized data got a MemoryOverhead figure")
	}
}

func TestMisrReferenceMatchesHardware(t *testing.T) {
	// A trivial routine folding known constants must produce the Go-side
	// MisrStream prediction.
	vals := []uint32{0x11111111, 0x02222222, 0xDEADBEEF}
	r := &sbst.Routine{
		Name: "ref", Target: "ref", DataBase: dataBaseFor(0),
		DataWords: vals,
	}
	r.Blocks = []sbst.Block{{Name: "fold", Emit: func(b *asm.Builder) {
		for i := int32(0); i < 3; i++ {
			b.Load(isa.OpLW, 1, isa.RegBase, i*4)
			b.Nop()
			b.Nop()
			b.Nop()
			b.Misr(1)
		}
	}}}
	res, _, err := RunSingle(cfg(1, true, true, [3]int{}), 0,
		&CoreJob{Routine: r, Strategy: CacheBased{WriteAllocate: true}, CodeBase: soc.CodeLow},
		maxRun)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("run failed: %+v", res)
	}
	if want := sbst.MisrStream(vals...); res.Signature != want {
		t.Errorf("signature %#x, want MisrStream %#x", res.Signature, want)
	}
}
