package conform

import (
	"testing"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/soc"
)

// TestMultifaultSteeringReachesCoverage pins the steering pass at a fixed
// environment: the instrumented candidate runs must light pipeline
// coverage, the greedy pick must keep a non-trivial diverse site set, and
// the resulting pair universe must be the full k*(k-1)/2 enumeration.
// A steering pass that silently observed nothing (coverage detached, map
// never folded) would pick zero sites and make the scenario vacuous —
// exactly what this test exists to catch.
func TestMultifaultSteeringReachesCoverage(t *testing.T) {
	env, err := NewCampaignEnv("forwarding", 0, 2, soc.CodeLow, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sites := fault.ForwardingLogic(fault.ListOptions{DataBits: 32, BitStep: 4})
	fault.SortSites(sites)
	if len(sites) > maxSteerCandidates {
		sites = fault.Sample(sites, (len(sites)+maxSteerCandidates-1)/maxSteerCandidates)
	}
	c, err := env.record(sites)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	picked, union := steerSites(ar, sites, steeredSites)
	if len(picked) < 2 {
		t.Fatalf("steering kept %d sites, want >= 2 (of %d candidates)", len(picked), len(sites))
	}
	if len(picked) > steeredSites {
		t.Fatalf("steering kept %d sites, cap is %d", len(picked), steeredSites)
	}
	if !union.Has(coverage.FeatIssue1) {
		t.Error("steered union never lit FeatIssue1: candidate runs collected no pipeline coverage")
	}
	if union.Count() == 0 {
		t.Fatal("steered union is empty")
	}
	groups := fault.PairGroups(picked)
	if want := len(picked) * (len(picked) - 1) / 2; len(groups) != want {
		t.Fatalf("pair universe has %d groups, want %d", len(groups), want)
	}
}

// TestMultifaultScenarioSweep runs the registered scenario over a few
// pinned seeds: both arena modes must agree on every steered pair universe
// (and the scenario must be listed — Lookup is how CI matrices reach it).
func TestMultifaultScenarioSweep(t *testing.T) {
	sc, err := Lookup("multifault")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Guidable() {
		t.Fatal("multifault registered as guidable; it runs no generated programs")
	}
	for seed := int64(1); seed <= 3; seed++ {
		if m := sc.Run(seed); m != nil {
			t.Fatalf("seed %d: %s", seed, m)
		}
	}
}
