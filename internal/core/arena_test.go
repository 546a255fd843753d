package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/soc"
)

// arenaEnv builds the replay environment the fault campaigns use: a full
// multi-core golden run records the other cores' bus traffic, then the core
// under test (core 0) runs alone against the replayed contention. strat is
// the core under test's strategy. A cache-based strategy turns every
// core's caches on and runs on every core; otherwise the other cores run
// plain.
func arenaEnv(t *testing.T, active int, strat Strategy) (replayCfg soc.Config, job *CoreJob, budget int64) {
	t.Helper()
	_, cached := strat.(CacheBased)
	c := cfg(active, cached, true, [3]int{})
	rc, err := Record(c, jobsSameRoutine(active, fwdRoutine, func(id int) Strategy {
		if id == 0 || cached {
			return strat
		}
		return Plain{}
	}), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rc.Cfg, rc.Job, rc.Budget
}

// freshRun runs job once on a freshly built SoC in the replay environment
// (rebuild-per-fault semantics) and returns the result plus cache statistics.
func freshRun(t *testing.T, replayCfg soc.Config, job *CoreJob, budget int64, p fault.Plane) (RunResult, [2]cache.Stats) {
	t.Helper()
	c := replayCfg
	for id := 0; id < soc.NumCores; id++ {
		c.Cores[id].Active = id == 0
	}
	c.Cores[0].Plane = p
	var jobs [soc.NumCores]*CoreJob
	jobs[0] = job
	res, s, err := RunJobs(c, jobs, budget)
	if err != nil {
		t.Fatal(err)
	}
	return *res[0], socCacheStats(s)
}

func socCacheStats(s *soc.SoC) [2]cache.Stats {
	var out [2]cache.Stats
	if s.Cores[0].ICache != nil {
		out[0] = s.Cores[0].ICache.Stats()
		out[1] = s.Cores[0].DCache.Stats()
	}
	return out
}

// stateStrategies are the strategies of the core under test the state
// pins cover: plain, cache-based and TCM-based, whose memory clients differ
// (bypass clients, cache controllers, TCM clients on both sides).
var stateStrategies = []Strategy{Plain{}, CacheBased{WriteAllocate: true}, TCMBased{}}

// trampleSites is a spread of fault sites chosen to corrupt different
// layers: forwarded data (wild stores), mux selects (wild control flow,
// often wedges) and a stuck hazard line (stalls/hangs).
var trampleSites = []fault.Site{
	{Unit: fault.UnitFwd, Signal: fault.SigMuxData, Lane: 0, Operand: 0, Path: fault.PathEXL0, Bit: 31, Stuck: 1},
	{Unit: fault.UnitFwd, Signal: fault.SigMuxSel, Lane: 1, Operand: 1, Bit: 2, Stuck: 1},
	{Unit: fault.UnitHDCU, Signal: fault.SigCtl, Path: fault.CtlLoadUse, Stuck: 1},
}

// TestArenaResetMatchesFreshSoC is the reset-equivalence property: across
// the plain, cache and TCM strategies and 1-3-core replay environments, a
// Reset() arena SoC reproduces the exact golden signature, cycle count,
// performance counters and cache statistics of a freshly built SoC —
// including immediately after a faulty (possibly wedged) run has trampled
// caches, memories and architectural state. The SoC NewArena returns, left
// where its capture ended, already holds that result and those statistics.
func TestArenaResetMatchesFreshSoC(t *testing.T) {
	for _, strat := range stateStrategies {
		name := strat.Name()
		for active := 1; active <= soc.NumCores; active++ {
			replayCfg, job, budget := arenaEnv(t, active, strat)
			wantRes, wantStats := freshRun(t, replayCfg, job, budget, nil)
			if !wantRes.OK {
				t.Fatalf("strategy=%s active=%d: fresh replay golden failed", name, active)
			}

			a, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				sig, ok := a.Run(fault.None)
				if sig != wantRes.Signature || !ok {
					t.Fatalf("strategy=%s active=%d %s: arena golden %08x ok=%v, fresh %08x",
						name, active, when, sig, ok, wantRes.Signature)
				}
				if got := a.Last(); got != wantRes {
					t.Errorf("strategy=%s active=%d %s: arena result %+v != fresh %+v",
						name, active, when, got, wantRes)
				}
				if got := socCacheStats(a.SoC()); got != wantStats {
					t.Errorf("strategy=%s active=%d %s: arena cache stats %+v != fresh %+v",
						name, active, when, got, wantStats)
				}
			}
			// NewArena leaves its SoC where the capture ended, which
			// cmd/bench's probe reads right after construction.
			if got := a.Last(); got != wantRes {
				t.Errorf("strategy=%s active=%d: capture result %+v != fresh %+v", name, active, got, wantRes)
			}
			if got := socCacheStats(a.SoC()); got != wantStats {
				t.Errorf("strategy=%s active=%d: cache stats after the capture %+v != fresh %+v", name, active, got, wantStats)
			}
			check("first run")
			for i, site := range trampleSites {
				a.Run(fault.PlaneFor(site)) // trample state
				check([]string{"after data fault", "after sel fault", "after ctl fault"}[i])
			}
		}
	}
}

// TestArenaFaultyRunMatchesFreshSoC pins the per-fault path itself: for a
// sample of fault sites, a reset arena run must reproduce the signature and
// clean/crash classification of a freshly built SoC simulating the same
// fault with the full budget.
func TestArenaFaultyRunMatchesFreshSoC(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 2, Plain{})
	sites := fault.ForwardingLogic(fault.ListOptions{DataBits: 32, BitStep: 8})
	fault.SortSites(sites)
	sites = fault.Sample(sites, 7)

	a, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range sites {
		fresh, _ := freshRun(t, replayCfg, job, budget, fault.PlaneFor(site))
		sig, ok := a.Run(fault.PlaneFor(site))
		if ok != fresh.OK {
			t.Errorf("%v: arena ok=%v, fresh ok=%v", site, ok, fresh.OK)
			continue
		}
		// Crashed runs may be cut short by the divergence watchdogs, so
		// only clean runs pin the exact signature (campaign reports
		// canonicalise crashed signatures to 0 for the same reason).
		if ok && sig != fresh.Signature {
			t.Errorf("%v: arena signature %08x, fresh %08x", site, sig, fresh.Signature)
		}
	}
}

// TestArenaRunAllocationFree pins that a fault run on a reusable arena
// allocates nothing, under the plain, cache and TCM strategies: beyond
// Reset and Start (TestResetStartAllocationFree), the per-cycle loop,
// decode-cache misses on undecodable words included, builds nothing on
// the heap. The planes are built up front — a plane is the caller's
// allocation, not the run's.
func TestArenaRunAllocationFree(t *testing.T) {
	sites := fault.ForwardingLogic(fault.ListOptions{DataBits: 32, BitStep: 8})
	fault.SortSites(sites)
	planes := make([]fault.Plane, 40)
	for i := range planes {
		planes[i] = fault.PlaneFor(sites[i])
	}
	for _, tc := range []struct {
		name   string
		strat  Strategy
		cached bool
	}{
		{"plain", Plain{}, false},
		{"cache", CacheBased{WriteAllocate: true}, true},
		{"tcm", TCMBased{CoreID: 0}, false},
	} {
		rc, err := Record(cfg(1, tc.cached, true, [3]int{}),
			jobsSameRoutine(1, fwdRoutine, func(int) Strategy { return tc.strat }), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for mode, opt := range map[string]ArenaOptions{"reference": {NoEarlyExit: true}, "early-exit": {}} {
			a, err := NewArena(rc.Cfg, 0, rc.Job, rc.Budget, opt)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			allocs := testing.AllocsPerRun(len(planes)-1, func() {
				a.Run(planes[next%len(planes)])
				next++
			})
			if allocs != 0 {
				t.Errorf("%s/%s: Arena.Run allocated %v times per run, want 0", tc.name, mode, allocs)
			}
		}
	}
}
