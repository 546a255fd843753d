package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/soc"
)

// TestArenaCheckpointRestoreMatchesSteppedSoC is the checkpoint-equivalence
// pin, the restore-side counterpart of TestArenaResetMatchesFreshSoC: across
// the plain, cache and TCM strategies and 1-3-core replay environments,
// every golden checkpoint the arena captured is bit-identical to the arena's
// SoC reset and stepped to the same cycle after faulty runs have trampled
// it (so a Reset that leaves any state behind, live or dead, shows), a
// Restore of it round-trips through Snapshot unchanged, and a run continued
// from the restore point finishes with the golden signature. This also pins
// that the activation probe (an identity plane installed during capture)
// does not perturb golden state: the stepped reference runs with
// fault.None, not the probe.
//
// The campaign path is pinned too: after Campaign.Run's capture placed its
// checkpoints where the universe's sites activate and its arenas served the
// whole universe, every placed checkpoint equals a fresh SoC over the
// campaign's image stepped to its cycle, with the trace position, last
// store cycle and Transition edge history of that golden prefix.
func TestArenaCheckpointRestoreMatchesSteppedSoC(t *testing.T) {
	for _, strat := range stateStrategies {
		name := strat.Name()
		for active := 1; active <= soc.NumCores; active++ {
			campaignCheckpointsMatchSteppedSoC(t, active, strat)
			replayCfg, job, budget := arenaEnv(t, active, strat)
			a := checkpointedArena(t, replayCfg, job, budget, 512)
			if a.Stats().Checkpoints == 0 {
				t.Fatalf("strategy=%s active=%d: no checkpoints captured", name, active)
			}
			for _, site := range trampleSites {
				a.Run(fault.PlaneFor(site)) // trample state
			}
			s := a.SoC()
			for i := range a.gold.ckpts {
				ck := &a.gold.ckpts[i]
				s.Reset()
				s.SetPlane(0, fault.None)
				s.Start(0, a.gold.entry)
				for s.Cycle() < ck.cycle {
					s.Step()
				}
				stepped := s.Snapshot()
				if !reflect.DeepEqual(stepped, ck.state) {
					t.Fatalf("strategy=%s active=%d: checkpoint %d (cycle %d) differs from fresh SoC stepped there",
						name, active, i, ck.cycle)
				}
				s.Restore(ck.state)
				if restored := s.Snapshot(); !reflect.DeepEqual(restored, ck.state) {
					t.Fatalf("strategy=%s active=%d: restore of checkpoint %d (cycle %d) does not round-trip",
						name, active, i, ck.cycle)
				}
			}

			// A run continued from the last restore point (left in place by
			// the loop above) finishes as the golden run.
			for s.Cycle() < budget && !s.Done() {
				s.Step()
			}
			if !s.Done() {
				t.Fatalf("strategy=%s active=%d: restored continuation exhausted the budget", name, active)
			}
			if sig := s.Cores[0].Core.Reg(isa.RegSig); sig != a.gold.res.Signature {
				t.Errorf("strategy=%s active=%d: restored continuation signature %08x, golden %08x",
					name, active, sig, a.gold.res.Signature)
			}

			// The arena itself is unscathed by the manual stepping: it still
			// serves the exact golden verdict.
			if sig, ok := a.Run(fault.None); sig != a.gold.res.Signature || !ok {
				t.Errorf("strategy=%s active=%d: arena golden after restores %08x ok=%v",
					name, active, sig, ok)
			}
		}
	}
}

// TestArenaCheckpointedTransitionRunsMatchFreshSoC pins the checkpointed
// fast path against rebuild-per-fault semantics: for a sample of transition sites, a
// checkpointed arena run (golden-served or checkpoint-restored) must
// reproduce the verdict of a freshly built SoC simulating the same fault
// with the full budget.
func TestArenaCheckpointedTransitionRunsMatchFreshSoC(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 2, Plain{})
	sites := fault.TransitionFaults(fault.ListOptions{DataBits: 32, BitStep: 4})
	fault.SortSites(sites)
	sites = fault.Sample(sites, 11)

	a := checkpointedArena(t, replayCfg, job, budget, 256)
	if a.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoints captured")
	}
	for _, site := range sites {
		fresh, _ := freshRun(t, replayCfg, job, budget, fault.PlaneFor(site))
		sig, ok := a.Run(fault.PlaneFor(site))
		if ok != fresh.OK {
			t.Errorf("%v: arena ok=%v, fresh ok=%v", site, ok, fresh.OK)
			continue
		}
		if ok && sig != fresh.Signature {
			t.Errorf("%v: arena signature %08x, fresh %08x", site, sig, fresh.Signature)
		}
	}
	if d := a.Stats().Dispatch; d[fault.DispatchCheckpoint]+d[fault.DispatchGolden] == 0 {
		t.Error("checkpoint fast path never engaged across the sample")
	}
}

// TestArenaCheckpointedStuckAtRunsMatchFreshSoC is the stuck-at
// counterpart: a sample of forwarding, HDCU and ICU stuck-at sites, served
// by a checkpointed arena through the golden shortcut, a checkpoint restore
// or the full replay, must reproduce the verdict of a freshly built SoC
// simulating the same fault with the full budget, and the sample must reach
// both shortcuts.
func TestArenaCheckpointedStuckAtRunsMatchFreshSoC(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 2, Plain{})
	opts := fault.ListOptions{DataBits: 32, BitStep: 4}
	var sites []fault.Site
	for _, u := range [][]fault.Site{fault.ForwardingLogic(opts), fault.HDCU(opts), fault.ICU(opts)} {
		fault.SortSites(u)
		sites = append(sites, fault.Sample(u, 9)...)
	}

	a := checkpointedArena(t, replayCfg, job, budget, 256)
	for _, site := range sites {
		fresh, _ := freshRun(t, replayCfg, job, budget, fault.PlaneFor(site))
		sig, ok := a.Run(fault.PlaneFor(site))
		if ok != fresh.OK || (ok && sig != fresh.Signature) {
			t.Errorf("%v: arena (%08x, %v), fresh (%08x, %v)", site, sig, ok, fresh.Signature, fresh.OK)
		}
	}
	d := a.Stats().Dispatch
	if d[fault.DispatchCheckpoint] == 0 || d[fault.DispatchGolden] == 0 {
		t.Errorf("stuck-at sample missed a shortcut: %v", d)
	}
}

// checkpointedArena is NewArena with its capture checkpointed every iv
// cycles: the dense, evenly spaced checkpoints the equivalence pins step
// through, which no Campaign.Run call takes.
func checkpointedArena(t *testing.T, cfg soc.Config, job *CoreJob, budget, iv int64) *Arena {
	t.Helper()
	prog, err := buildProgram(job)
	if err != nil {
		t.Fatal(err)
	}
	g, s, err := newCapture(cfg, 0, job, prog, budget, ArenaOptions{}, iv)
	if err != nil {
		t.Fatal(err)
	}
	a := g.arena(s)
	a.st.Runs, a.last = 1, g.res
	return a
}

// campaignCheckpointsMatchSteppedSoC is the campaign half of
// TestArenaCheckpointRestoreMatchesSteppedSoC for one replay environment.
// It also pins that the placement pass recorded no trace: the capture's
// trace is the store list of a fresh SoC stepped through the whole golden
// run.
func campaignCheckpointsMatchSteppedSoC(t *testing.T, active int, strat Strategy) {
	t.Helper()
	replayCfg, job, budget := arenaEnv(t, active, strat)
	opts := fault.ListOptions{DataBits: 32, BitStep: 4}
	sites := universe(append(fault.TransitionFaults(opts), fault.ForwardingLogic(opts)...))
	c := &Campaign{Cfg: replayCfg, Core: 0, Job: job, Sites: sites, Budget: budget}
	iv := checkpointInterval(budget)
	arenas := callArenas(t, c, ArenaOptions{}, iv, sites, nil, 2)
	g := arenas[0].gold
	simulate(t, arenas, sites)
	if len(g.ckpts) == 0 || evenlySpaced(g, iv) {
		t.Fatalf("strategy=%s active=%d: capture kept its uniform checkpoints %v (interval %d)",
			strat.Name(), active, g.cycles(), iv)
	}
	s := soc.NewFromImage(g.cfg, g.img)
	var stores []obsEvent
	s.Cores[0].Core.SetStoreObserver(func(addr uint32, val uint64, size int) {
		stores = append(stores, obsEvent{addr: addr, val: val, size: size, cycle: s.Cycle()})
	})
	probe := fault.NewProbe(s.Cycle)
	s.SetPlane(0, probe)
	s.Start(0, g.entry)
	for i := range g.ckpts {
		ck := &g.ckpts[i]
		for s.Cycle() < ck.cycle {
			s.Step()
		}
		if !reflect.DeepEqual(s.Snapshot(), ck.state) {
			t.Fatalf("strategy=%s active=%d: placed checkpoint %d (cycle %d) differs from a fresh SoC stepped there",
				strat.Name(), active, i, ck.cycle)
		}
		var lastStore int64
		if len(stores) > 0 {
			lastStore = stores[len(stores)-1].cycle
		}
		if ck.obsIdx != len(stores) || ck.lastObs != lastStore || ck.hist != probe.History() {
			t.Fatalf("strategy=%s active=%d: placed checkpoint %d (cycle %d) resumes at store %d (cycle %d), stepped SoC at %d (cycle %d), or its edge history differs",
				strat.Name(), active, i, ck.cycle, ck.obsIdx, ck.lastObs, len(stores), lastStore)
		}
	}
	for s.Cycle() < budget && !s.Done() {
		s.Step()
	}
	if !slices.Equal(g.trace, stores) {
		t.Fatalf("strategy=%s active=%d: capture trace holds %d stores, the golden run %d",
			strat.Name(), active, len(g.trace), len(stores))
	}
}
