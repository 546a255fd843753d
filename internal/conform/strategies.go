package conform

// Strategy and scheduler conformance — the two scenario families that lift
// differential checking from bare programs to the paper's deployment
// shapes.
//
// "strategies": one generated program is bridged into routine block form
// (progen.BlockForm) and wrapped by each execution strategy — Plain,
// CacheBased (with a seed-swept partition budget, so single- and
// multi-chunk wrappings are both exercised) and TCMBased — and every
// wrapping that the strategy accepts must reproduce the interpreter
// reference signature exactly. A MemoryOverhead/Validate rejection is an
// explicit skip verdict for that wrapping, never a silent pass.
//
// "sched": the bridged program plus a seed-derived slice of the sbst
// library become a task set; sched.Partition distributes it over a random
// core count and the full multi-core boot (decentralized barrier included)
// must produce per-task signatures bit-identical to the one-core serial
// plan, with the LPT plan invariants and a makespan-conservation bound
// checked on the live SoC.

import (
	"fmt"
	"math/rand"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/isa"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/progen"
	"repro/internal/sbst"
	"repro/internal/sched"
	"repro/internal/soc"
)

const (
	// stratIssBudget bounds the interpreter reference run of a bridged
	// program: the per-block clear/fold loops multiply the dynamic
	// instruction count well beyond the bare-program issBudget when the
	// scratch window is large.
	stratIssBudget = 2_000_000

	// schedSlackCycles absorbs serial-only overhead (the one-core barrier
	// epilogue) in the live makespan-conservation bound.
	schedSlackCycles = 20_000

	// sigTableBase is the per-task signature table in the uncached SRAM
	// alias: below the barrier flag line, clear of every data area.
	sigTableBase = mem.SRAMUncachedBase + mem.SRAMSize - 256
)

// sigSlot is task i's published-signature word.
func sigSlot(i int) uint32 { return sigTableBase + uint32(i)*4 }

// stratGeom sweeps the cache strategy's partition budget across the seed
// space so the same physical 8 kB cache sees single-chunk, two-chunk and
// many-chunk wrappings (the paper's splitting rule, Figure 2b). Zero means
// the full cache size.
func stratGeom(seed int64) int {
	switch ((seed % 3) + 3) % 3 {
	case 1:
		return 4096
	case 2:
		return 2048
	default:
		return 0
	}
}

// checkStrategies runs one program through every wrapping strategy and
// compares architectural signatures against the interpreter reference.
func (sp progSpec) checkStrategies(p *progen.Program, cov *coverage.Map) string {
	if p.Cfg.Interrupts.Enabled() {
		// Handler programs need their injection plan, which no strategy
		// wrapper carries; a cross-scenario corpus may hand one over.
		sp.skip()
		sp.fullSkip()
		return ""
	}
	has64, coreID := progTarget(p)
	r := p.BlockForm("strat")

	// Interpreter reference: the plain-wrapped form, architecturally
	// identical to every accepted wrapping.
	ref := asm.NewBuilder()
	if err := (core.Plain{}).Emit(ref, r); err != nil {
		return fmt.Sprintf("plain emit: %v", err)
	}
	ref.Halt()
	prog, err := ref.Assemble(codeBase)
	if err != nil {
		return fmt.Sprintf("assemble: %v", err)
	}
	m := iss.NewSparseMem()
	m.LoadWords(prog.Base, prog.Words)
	s := iss.New(m, prog.Base, has64)
	if err := s.Run(stratIssBudget); err != nil {
		return fmt.Sprintf("iss: %v", err)
	}
	refSig := s.Regs[isa.RegSig]

	wraps := []struct {
		name   string
		strat  core.Strategy
		cached bool
	}{
		{"plain", core.Plain{}, false},
		{"cache", core.CacheBased{WriteAllocate: true, ICacheBytes: stratGeom(p.Seed)}, true},
		{"tcm", core.TCMBased{CoreID: coreID}, false},
	}
	var diffs []string
	accepted := 0
	for _, w := range wraps {
		// Applicability first: a Validate/partition/TCM-size rejection is
		// an explicit skip verdict for this wrapping, not a pass. One dry
		// Emit covers every rejection rule — MemoryOverhead shares the
		// same validation (core.TCMBased.validate), so probing it too
		// would only assemble the body a second time.
		if err := w.strat.Emit(asm.NewBuilder(), r); err != nil {
			sp.skip()
			continue
		}
		accepted++
		res, err := runWrapped(r, coreID, w.strat, w.cached, cov)
		if err != nil {
			diffs = append(diffs, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		if !res.OK {
			diffs = append(diffs, fmt.Sprintf("%s: run failed (wedged=%v)", w.name, res.Wedged))
			continue
		}
		if res.Signature != refSig {
			diffs = append(diffs, fmt.Sprintf("%s: sig %08x, want %08x", w.name, res.Signature, refSig))
		}
	}
	if accepted == 0 {
		// Every wrapping rejected the program: nothing was compared at all.
		sp.fullSkip()
	}
	return renderDiffs(diffs)
}

// runWrapped executes one strategy-wrapped routine on the SoC.
func runWrapped(r *sbst.Routine, coreID int, strat core.Strategy, cached bool, cov *coverage.Map) (*core.RunResult, error) {
	var jobs [soc.NumCores]*core.CoreJob
	jobs[coreID] = &core.CoreJob{Routine: r, Strategy: strat, CodeBase: codeBase}
	results, _, err := core.RunJobsSetup(socConfig(coreID, cached, false), jobs, socBudget,
		func(s *soc.SoC) {
			if cov != nil {
				s.SetCoverage(cov)
			}
		})
	if err != nil {
		return nil, err
	}
	return results[coreID], nil
}

// schedShape is the seed-derived scheduler-scenario shape: core count,
// wrapping strategy and the library tasks that ride alongside the fuzzed
// program.
type schedShape struct {
	nCores int
	strat  string
	libs   []string
}

// schedLibPool lists the library routines eligible as scheduler tasks:
// pure-dataflow signatures (no performance counters, no interrupts, no
// position-dependent folds), so serial and parallel placements must agree
// under every strategy including Plain.
var schedLibPool = []string{"alu", "shift", "mul", "loadstore", "branch", "forwarding"}

func schedShapeFor(seed int64) schedShape {
	rng := rand.New(rand.NewSource(seed ^ 0x7363686564)) // "sched"
	sh := schedShape{nCores: 1 + rng.Intn(soc.NumCores)}
	sh.strat = []string{"plain", "cache", "tcm"}[rng.Intn(3)]
	k := rng.Intn(4)
	perm := rng.Perm(len(schedLibPool))
	for i := 0; i < k; i++ {
		sh.libs = append(sh.libs, schedLibPool[perm[i]])
	}
	return sh
}

// schedStrategy resolves one of schedShape's strategy names into the
// per-core factory Plan.Jobs consumes, plus whether the SoC needs caches on.
func schedStrategy(name string) (func(int) core.Strategy, bool) {
	strat := func(id int) core.Strategy {
		s, err := core.StrategyByName(name, id)
		if err != nil {
			panic(err) // schedShapeFor draws only known names
		}
		return s
	}
	_, cached := strat(0).(core.CacheBased)
	return strat, cached
}

// checkSched runs one task set through the multi-core scheduled boot and
// the one-core serial plan and compares per-task signatures plus the live
// plan invariants. libs normally comes from schedShapeFor(p.Seed);
// minimization passes reduced lists.
func (sp progSpec) checkSched(p *progen.Program, libs []string, cov *coverage.Map) string {
	if p.Cfg.Interrupts.Enabled() || p.Cfg.Pairs64 {
		// Handler programs need their injector; 64-bit pair programs are
		// core-C-only and a partition may place them on any core. Both are
		// out of scope: explicit skips, not silent passes.
		sp.skip()
		sp.fullSkip()
		return ""
	}
	sh := schedShapeFor(p.Seed)
	tasks := []sched.Task{{Routine: withSigPublish(p.BlockForm("fuzz"), sigSlot(0))}}
	for i, name := range libs {
		r, err := sbst.NewRoutineByName(name, sbst.RoutineOptions{
			DataBase: mem.SRAMBase + 0x1000*uint32(i+1),
		})
		if err != nil {
			return fmt.Sprintf("sched: %v", err)
		}
		tasks = append(tasks, sched.Task{Routine: withSigPublish(r, sigSlot(i+1))})
	}

	strat, cached := schedStrategy(sh.strat)
	for _, t := range tasks {
		if err := strat(0).Emit(asm.NewBuilder(), t.Routine); err != nil {
			// The chosen wrapping rejects a task: downgrade the whole
			// iteration to Plain (identically on both sides) and record the
			// explicit skip.
			strat, cached = schedStrategy("plain")
			sp.skip()
			break
		}
	}

	serialPlan, err := sched.Partition(tasks, 1)
	if err != nil {
		return fmt.Sprintf("sched: %v", err)
	}
	parPlan, err := sched.Partition(tasks, sh.nCores)
	if err != nil {
		return fmt.Sprintf("sched: %v", err)
	}
	if d := checkPlanInvariants(tasks, parPlan, sh.nCores); d != "" {
		return d
	}

	serialSigs, serialMax, d := runPlan(serialPlan, strat, cached, len(tasks), nil)
	if d != "" {
		return "serial: " + d
	}
	parSigs, parMax, d := runPlan(parPlan, strat, cached, len(tasks), cov)
	if d != "" {
		return "parallel: " + d
	}
	var diffs []string
	for i := range tasks {
		if parSigs[i] != serialSigs[i] {
			diffs = append(diffs, fmt.Sprintf("task %d sig %08x (parallel), %08x (serial)",
				i, parSigs[i], serialSigs[i]))
		}
	}
	// Work conservation on the live SoC: contention and barrier spin only
	// slow the parallel boot, so nCores x its makespan can never fall below
	// the serial run (minus the serial-only epilogue slack).
	if int64(sh.nCores)*parMax+schedSlackCycles < serialMax {
		diffs = append(diffs, fmt.Sprintf(
			"makespan conservation violated: %d cores x %d cycles < serial %d cycles",
			sh.nCores, parMax, serialMax))
	}
	return renderDiffs(diffs)
}

// checkPlanInvariants promotes the sched property-test invariants to the
// live scenario: exactly-once assignment, empty inactive cores, and a
// makespan estimate that recounts consistently and carries the heaviest
// task.
func checkPlanInvariants(tasks []sched.Task, plan sched.Plan, nCores int) string {
	seen := make(map[*sbst.Routine]int, len(tasks))
	assigned := 0
	loads := plan.Makespan()
	var longest, heaviest int64
	for c := 0; c < soc.NumCores; c++ {
		if c >= nCores && len(plan.PerCore[c]) > 0 {
			return fmt.Sprintf("plan: inactive core %d received tasks", c)
		}
		var recount int64
		for _, t := range plan.PerCore[c] {
			seen[t.Routine]++
			assigned++
			recount += t.Cost()
		}
		if loads[c] != recount {
			return fmt.Sprintf("plan: Makespan()[%d] = %d, recount %d", c, loads[c], recount)
		}
		if loads[c] > longest {
			longest = loads[c]
		}
	}
	if assigned != len(tasks) {
		return fmt.Sprintf("plan: %d of %d tasks assigned", assigned, len(tasks))
	}
	for i := range tasks {
		if seen[tasks[i].Routine] != 1 {
			return fmt.Sprintf("plan: task %d assigned %d times", i, seen[tasks[i].Routine])
		}
		if c := tasks[i].Cost(); c > heaviest {
			heaviest = c
		}
	}
	if len(tasks) > 0 && longest < heaviest {
		return fmt.Sprintf("plan: makespan %d below heaviest task %d", longest, heaviest)
	}
	return ""
}

// runPlan boots one plan on the SoC and returns the published per-task
// signature table and the slowest core's cycle count. The setup hook
// clears the barrier flags; after a clean run every participating core's
// flag must read published.
func runPlan(plan sched.Plan, strat func(int) core.Strategy, cached bool, nTasks int, cov *coverage.Map) ([]uint32, int64, string) {
	jobs := plan.Jobs(strat)
	cfg := soc.DefaultConfig()
	for id := 0; id < soc.NumCores; id++ {
		cfg.Cores[id].CachesOn = cached
		cfg.Cores[id].WriteAlloc = true
	}
	results, s, err := core.RunJobsSetup(cfg, jobs, socBudget, func(s *soc.SoC) {
		if cov != nil {
			s.SetCoverage(cov)
		}
		sched.ClearFlags(s)
	})
	if err != nil {
		return nil, 0, err.Error()
	}
	var maxCycles int64
	for id := 0; id < plan.NCores; id++ {
		res := results[id]
		if res == nil || !res.OK {
			return nil, 0, fmt.Sprintf("core %d did not complete cleanly (%+v)", id, res)
		}
		if res.Cycles > maxCycles {
			maxCycles = res.Cycles
		}
		if f := mem.ReadWord(s.SRAM, sched.FlagAddr(id)-mem.SRAMUncachedBase); f != 1 {
			return nil, 0, fmt.Sprintf("core %d completion flag = %d, want 1", id, f)
		}
	}
	sigs := make([]uint32, nTasks)
	for i := range sigs {
		sigs[i] = mem.ReadWord(s.SRAM, sigSlot(i)-mem.SRAMUncachedBase)
	}
	return sigs, maxCycles, ""
}

// withSigPublish returns a copy of r with one extra block that stores the
// routine's final signature to the uncached result slot. The block is the
// routine's last, so inside every strategy's loops the signature is
// already final when it runs and the store is idempotent; the last write
// is the committed value the checker reads.
func withSigPublish(r *sbst.Routine, addr uint32) *sbst.Routine {
	cp := *r
	cp.Blocks = append(append([]sbst.Block(nil), r.Blocks...), sbst.Block{
		Name: "publish",
		Emit: func(b *asm.Builder) {
			b.I(isa.OpLUI, isa.RegTmp0, 0, int32(addr>>16))
			b.I(isa.OpORI, isa.RegTmp0, isa.RegTmp0, int32(addr&0xFFFF))
			b.Store(isa.OpSW, isa.RegSig, isa.RegTmp0, 0)
		},
	})
	return &cp
}
