package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fault"
)

// TestArenaNoEarlyExitMatchesLegacy pins the reference arena mode
// (ArenaOptions.Reference: no early exit, no checkpointing, no
// golden-verdict shortcut) as the campaign reference semantics. It was
// first run against the retired rebuild-per-fault legacy engine to inherit
// its pin: reference-arena reports were bit-identical to legacy reports on
// these universes before the legacy code was deleted. The pin now targets
// the optimized arena against the reference mode, over the same quick
// universes (stuck-at, transition and hang sites): early exit alone, on
// NewArena's arenas, and early exit with a Run call's arenas checkpointed
// every 512 cycles. The -race CI job runs this test under the race
// detector.
func TestArenaNoEarlyExitMatchesLegacy(t *testing.T) {
	for _, env := range []struct {
		name   string
		active int
		strat  Strategy
	}{
		{"uncached-1core", 1, Plain{}},
		{"cached-2core", 2, CacheBased{WriteAllocate: true}},
	} {
		t.Run(env.name, func(t *testing.T) {
			replayCfg, job, budget := arenaEnv(t, env.active, env.strat)
			sites := campaignSites()

			ref, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
				CampaignOptions{Workers: 2, Reference: true})
			if err != nil {
				t.Fatal(err)
			}

			// Early exit without checkpoints, NewArena's mode: the
			// divergence watchdogs must not change a single verdict.
			plain := make([]*Arena, 2)
			for w := range plain {
				if plain[w], err = NewArena(replayCfg, 0, job, budget, ArenaOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			if rep := simulate(t, plain, sites); !ref.SameVerdicts(rep) {
				t.Fatalf("optimized arena report differs from reference:\nref %+v\nopt %+v", ref, rep)
			}

			// Checkpointed leg: golden-run checkpoint restores and the
			// golden-verdict shortcut are pure execution strategy.
			c := &Campaign{Cfg: replayCfg, Core: 0, Job: job, Sites: sites, Budget: budget}
			if rep := simulate(t, callArenas(t, c, ArenaOptions{}, 512, sites, nil, 2), sites); !ref.SameVerdicts(rep) {
				t.Fatalf("checkpointed arena report differs from reference:\nref  %+v\nckpt %+v", ref, rep)
			}
		})
	}
}

// TestCampaignWorkerCountStable pins that the full-universe campaign path
// is order-stable across worker-pool sizes: the report over an entire
// (unsampled, sorted) universe must be bit-identical under Workers 1, 4
// and GOMAXPROCS. Verdict slots are indexed by site position and workers
// claim sites through an atomic cursor, so parallelism must never reorder
// or skew a report — the invariant that made removing the legacy site
// sampling cap safe.
func TestCampaignWorkerCountStable(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 2, Plain{})
	sites := fault.ICU(fault.ListOptions{BitStep: 1})
	fault.SortSites(sites)
	if len(sites) < 8 {
		t.Fatalf("ICU universe has only %d sites; test is vacuous", len(sites))
	}

	var base fault.Report
	for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		rep, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
			CampaignOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			base = rep
			continue
		}
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("report differs between Workers=1 and Workers=%d:\nbase %+v\ngot  %+v",
				workers, base, rep)
		}
	}
}
