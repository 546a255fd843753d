package main

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/serve"
)

// small cuts w down to two cheap specs — bitstep-8 forwarding, or ICU,
// whose 48-site universe does not depend on bitstep — so a whole traced
// run takes well under a second.
func small(t *testing.T, w workload) workload {
	t.Helper()
	var keep []serve.Spec
	for _, s := range w.specs {
		cheap := s.Core == 0 && s.Strategy == "plain" && s.BitStep == 8
		if w.name == "control-hdcu-icu" {
			cheap = s.Routine == "icu" && s.Core == 0 && s.Strategy != "tcm"
		}
		if cheap && len(keep) < 2 {
			keep = append(keep, s)
		}
	}
	if len(keep) != 2 {
		t.Fatalf("%s: found %d cheap specs, want 2", w.name, len(keep))
	}
	w.specs = keep
	return w
}

func mustRefs(t *testing.T) map[string]string {
	t.Helper()
	refs, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestMetricsMatchBenchmarkJSON runs every workload, untraced and traced,
// and checks that what it emits is what BENCHMARK.json declares: the
// workloads in order, and every metric by name and unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, e2eDefs) {
		t.Errorf("end_to_end %v, the benchmark emits %v", e2e, e2eDefs)
	}
	if !reflect.DeepEqual(layer, layerDefs) {
		t.Errorf("per_layer %v, the benchmark emits %v", layer, layerDefs)
	}

	refs := mustRefs(t)
	for _, w := range workloads() {
		w := small(t, w)
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), w, 1, 0, traced, "", refs)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d jobs failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			defs := e2eDefs
			if traced {
				defs = layerDefs
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
			}
			if !traced && res.Metrics["sites_per_s"].Value <= 0 {
				t.Errorf("%s: sites_per_s %v", w.name, res.Metrics["sites_per_s"].Value)
			}
		}
	}
}

func TestScheduleFollowsSeed(t *testing.T) {
	for _, w := range workloads() {
		a := schedule(w, newRNG(7))
		if b := schedule(w, newRNG(7)); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew two different schedules", w.name)
		}
		if c := schedule(w, newRNG(8)); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 drew the same schedule", w.name)
		}
	}
}

// TestServiceScheduleDistinctColdJobs checks that service-mix submits each
// spec cold exactly once, and every spec cold before any resubmission.
func TestServiceScheduleDistinctColdJobs(t *testing.T) {
	w, err := findWorkload("service-mix")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[serve.Spec]bool{}
	for _, s := range w.specs {
		if seen[s] {
			t.Fatalf("spec %s listed twice", specKey(s))
		}
		seen[s] = true
	}
	sched := schedule(w, newRNG(3))
	cold := map[int]bool{}
	cached := map[int]int{}
	for _, sub := range sched {
		if !sub.cached {
			if cold[sub.spec] {
				t.Fatalf("spec %d submitted cold twice", sub.spec)
			}
			cold[sub.spec] = true
			continue
		}
		if len(cold) != len(w.specs) {
			t.Fatalf("spec %d resubmitted before every spec was submitted cold", sub.spec)
		}
		cached[sub.spec]++
	}
	for i := range w.specs {
		if !cold[i] || cached[i] != cachedPerCold {
			t.Errorf("spec %d: cold %v, %d cached resubmissions, want %d", i, cold[i], cached[i], cachedPerCold)
		}
	}
}

// TestDifferingReportFails checks that a report that does not match its
// reference digest counts as a failed job.
func TestDifferingReportFails(t *testing.T) {
	w, err := findWorkload("service-mix")
	if err != nil {
		t.Fatal(err)
	}
	w = small(t, w)
	refs := map[string]string{}
	for k, v := range mustRefs(t) {
		refs[k] = v
	}
	refs[specKey(w.specs[0])] = "0000"
	r := newRunner(w, 1, 2, refs, false)
	if err := r.measure(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, s := range r.samples {
		if s.spec == 0 {
			want++
		}
	}
	if r.failed < want || r.failed == 0 {
		t.Fatalf("%d failed jobs, want at least the %d timed jobs of the altered spec", r.failed, want)
	}
}

// TestReferenceDigestsMatchReferenceMode recomputes a few entries of
// reference.json in reference mode.
func TestReferenceDigestsMatchReferenceMode(t *testing.T) {
	refs := mustRefs(t)
	w, err := findWorkload("transition-fwd")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range small(t, w).specs {
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget,
			core.CampaignOptions{Workers: 2, Reference: true})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := serve.MarshalReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := digest(blob), refs[specKey(spec)]; got != want {
			t.Errorf("%s: reference digest %s, reference.json has %s", specKey(spec), got, want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	p90 := percentile(v, 0.9)
	beyond := 0
	for _, x := range v {
		if x > p90 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("p90 %v of n=100 has %d samples beyond it, want 10", p90, beyond)
	}
	// The Harrell-Davis weights are symmetric about the median and sum to
	// one, so the median of 1..100 is 50.5.
	if p50 := percentile(v, 0.5); math.Abs(p50-50.5) > 1e-9 {
		t.Errorf("p50 of 1..100 is %v, want 50.5", p50)
	}
	// statistics.quantiles(range(1, 11), n=4) in Python.
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := make([]float64, 10)
	for i := range base {
		base[i] = 100 + float64(i%3)
	}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", base, base, true, "unchanged"},
		{"slower", base, scaled(1.2), true, "worse"},
		{"faster", base, scaled(0.8), true, "better"},
		{"higher is better", base, scaled(1.2), false, "better"},
		{"too few pairs", base[:5], scaled(1.2)[:5], true, "unresolved"},
	}
	for _, c := range cases {
		if v, _, _ := verdict(c.a, c.b, c.lower, 0.1); v != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, v, c.want)
		}
	}

	mk := func(seed int64, traced bool, v float64) run {
		return run{seed: seed, traced: traced, res: result{Metrics: map[string]metric{"sim.fc_pct": {Value: v}}}}
	}
	if _, _, err := pairRuns([]run{mk(1, false, 0)}, []run{mk(2, false, 0)}); err == nil {
		t.Error("runs with different seeds were paired")
	}
	if d := exactDiffs([]run{mk(1, true, 50), mk(2, true, 50)}); len(d) != 0 {
		t.Errorf("equal exact counts flagged: %v", d)
	}
	if d := exactDiffs([]run{mk(1, true, 50), mk(2, true, 51)}); len(d) != 1 {
		t.Errorf("differing exact count not flagged: %v", d)
	}
}

// TestSelfSharesFromCPUProfile decodes a real CPU profile of a loop that
// spends its time decoding a routine's instructions.
func TestSelfSharesFromCPUProfile(t *testing.T) {
	c, err := serve.Spec{Routine: "forwarding", Strategy: "plain", BitStep: 8, Faults: "stuckat"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	words, err := programWords(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		for _, w := range words {
			decodeSink, _ = isa.Decode(w)
		}
	}
	pprof.StopCPUProfile()
	shares, err := selfShares([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	// Under -race most samples land in the race detector's own functions,
	// which no module claims, so isa need only lead the modules.
	for m, v := range shares {
		if m != "isa" && v >= shares["isa"] {
			t.Errorf("%s self share %.2f is not below isa's %.2f in a decode loop (all shares: %v)", m, v, shares["isa"], shares)
		}
	}
}
