package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/soc"
)

// The campaign budget is 8× a campaign's golden cycles plus a constant,
// and the optimized mode's watchdogs apply the same factor: the system
// assumes a fault slows a run by at most 8×. The watchdog census pins that
// assumption by rerunning sites in reference mode at a scaled budget. The
// budget enters every content key, so the census scales it on a copy of a
// recorded campaign, which no campaign option can do.

// censusSpecs returns the census's 72 specs: forwarding stuck-at and
// transition faults at bitstep 8, HDCU at bitstep 8 and ICU at bitstep 1,
// on every core under every strategy, single- and multi-core.
func censusSpecs() []serve.Spec {
	var out []serve.Spec
	for _, fam := range []struct {
		routine, faults string
		bitstep         int
	}{
		{"forwarding", "stuckat", 8},
		{"forwarding", "transition", 8},
		{"hdcu", "stuckat", 8},
		{"icu", "stuckat", 1},
	} {
		for c := range soc.NumCores {
			for _, st := range []string{"plain", "cache", "tcm"} {
				for _, mc := range []bool{false, true} {
					out = append(out, serve.Spec{Routine: fam.routine, Core: c, Strategy: st,
						Multicore: mc, BitStep: fam.bitstep, Faults: fam.faults})
				}
			}
		}
	}
	return out
}

// runScaled runs sites of c in reference mode on a copy of c whose budget
// is c's scaled by num/den.
func runScaled(tb testing.TB, c *core.Campaign, sites []fault.Site, num, den int64) fault.Report {
	tb.Helper()
	scaled := *c
	scaled.Budget = c.Budget * num / den
	rep, err := scaled.Run(sites, core.CampaignOptions{Reference: true, Workers: 2})
	if err != nil {
		tb.Fatalf("run at %d/%d of the budget: %v", num, den, err)
	}
	return rep
}

// watchdogCensus builds spec, runs its universe at the campaign budget and
// reruns the sites that crashed at four times it. It returns how many
// crashed at the budget and the 4× verdicts of those that did not crash
// again.
func watchdogCensus(tb testing.TB, spec serve.Spec) (crashed int, finished []fault.SiteResult) {
	tb.Helper()
	c, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	var sites []fault.Site
	for _, r := range runScaled(tb, c.Campaign, c.Sites, 1, 1).Results {
		if r.Crashed {
			sites = append(sites, r.Site)
		}
	}
	if len(sites) == 0 {
		return 0, nil
	}
	for _, r := range runScaled(tb, c.Campaign, sites, 4, 1).Results {
		if !r.Crashed {
			finished = append(finished, r)
		}
	}
	return len(sites), finished
}

// TestWatchdogCensusSlice is the census's Tier-1 slice: the six
// TCM-strategy forwarding stuck-at specs at bitstep 8 crash 150 sites at
// the campaign budget, and every one of them still crashes at four times
// it.
func TestWatchdogCensusSlice(t *testing.T) {
	total := 0
	for c := range soc.NumCores {
		for _, mc := range []bool{false, true} {
			spec := serve.Spec{Routine: "forwarding", Core: c, Strategy: "tcm", Multicore: mc, BitStep: 8, Faults: "stuckat"}
			crashed, finished := watchdogCensus(t, spec)
			total += crashed
			for _, r := range finished {
				t.Errorf("%s: %v crashes at the budget, but at 4× it finishes (%+v)", specName(spec), r.Site, r)
			}
		}
	}
	if total != 150 {
		t.Errorf("%d sites crash at the budget, want 150", total)
	}
}

// TestWatchdogCensusSeesBudget is the census's counter-pin: it shows that
// a rerun at a scaled budget can change a verdict. On icu/c0/plain/sc/bs1
// exactly four verdicts change at a quarter of the budget: the event-line
// stuck-at-1 sites of lane 0, operand A, paths 0-3, detected with a wrong
// signature at the budget, crash.
func TestWatchdogCensusSeesBudget(t *testing.T) {
	c, err := serve.Spec{Routine: "icu", Strategy: "plain", BitStep: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	full := runScaled(t, c.Campaign, c.Sites, 1, 1)
	quarter := runScaled(t, c.Campaign, c.Sites, 1, 4)
	var changed []string
	for i, r := range full.Results {
		q := quarter.Results[i]
		if q == r {
			continue
		}
		changed = append(changed, r.Site.String())
		if !r.Detected || r.Crashed || !q.Crashed {
			t.Errorf("%v: %+v at the budget, %+v at a quarter of it; want a wrong signature, then a crash", r.Site, r, q)
		}
	}
	want := []string{
		"ICU/evline L0 opA p0 b0 SA1",
		"ICU/evline L0 opA p1 b0 SA1",
		"ICU/evline L0 opA p2 b0 SA1",
		"ICU/evline L0 opA p3 b0 SA1",
	}
	if !slices.Equal(changed, want) {
		t.Errorf("verdicts changed at a quarter of the budget: %q, want %q", changed, want)
	}
}

// BenchmarkWatchdogCensus runs the full census over censusSpecs: every
// site that crashes at the campaign budget must still crash at four times
// it. It reports the sites crashed at the budget.
func BenchmarkWatchdogCensus(b *testing.B) {
	specs := censusSpecs()
	for b.Loop() {
		total := 0
		for _, spec := range specs {
			crashed, finished := watchdogCensus(b, spec)
			total += crashed
			for _, r := range finished {
				b.Errorf("%s: %v crashes at the budget, but at 4× it finishes (%+v)", specName(spec), r.Site, r)
			}
		}
		b.ReportMetric(float64(total), "crashed")
	}
}
