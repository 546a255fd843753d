package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json a comparison needs.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchFile(path string) (benchFile, error) {
	var bf benchFile
	blob, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(blob, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// run is one workload result with the seed and mode it ran under.
type run struct {
	seed   int64
	traced bool
	res    result
}

// loadRuns reads result files; a file may hold several records (one JSON
// object after another, e.g. one per line).
func loadRuns(paths []string) (map[string][]run, error) {
	out := map[string][]run{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(f)
		for {
			var rec record
			err := dec.Decode(&rec)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			for _, res := range rec.Workloads {
				out[res.Workload] = append(out[res.Workload],
					run{seed: rec.Provenance.Seed, traced: rec.Provenance.Trace, res: res})
			}
		}
		f.Close()
	}
	return out, nil
}

// pairRuns matches the untraced runs of both sides by seed. Each side must
// hold each seed once, and both sides the same seeds.
func pairRuns(a, b []run) (pa, pb []result, err error) {
	index := func(rs []run) (map[int64]result, error) {
		m := map[int64]result{}
		for _, r := range rs {
			if r.traced {
				continue
			}
			if _, dup := m[r.seed]; dup {
				return nil, fmt.Errorf("seed %d appears twice on one side", r.seed)
			}
			m[r.seed] = r.res
		}
		return m, nil
	}
	ma, err := index(a)
	if err != nil {
		return nil, nil, err
	}
	mb, err := index(b)
	if err != nil {
		return nil, nil, err
	}
	var seeds []int64
	for s := range ma {
		if _, ok := mb[s]; !ok {
			return nil, nil, fmt.Errorf("seed %d has no run on the second side", s)
		}
		seeds = append(seeds, s)
	}
	if len(ma) != len(mb) {
		return nil, nil, errors.New("the second side has seeds the first does not")
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		pa, pb = append(pa, ma[s]), append(pb, mb[s])
	}
	return pa, pb, nil
}

// minPairs is the fewest alternating pairs a verdict other than
// unresolved rests on.
const minPairs = 10

// verdict judges one metric over paired runs of A (the parent) and B (the
// change): better when B wins at least 9 of 10 pairs (ties count for
// neither) and the medians differ by more than A's interquartile range;
// unresolved with fewer than minPairs pairs, or when A's spread exceeds the
// bound unless every B run beats every A run; worse when B's median is
// worse by more than the bound; else unchanged. worseBy is the share by
// which B's median is worse than A's (negative when better).
func verdict(a, b []float64, lowerBetter bool, bound float64) (v string, worseBy float64, wins int) {
	beats := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	for i := range a {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	q1a, ma, q3a := quartiles(a)
	_, mb, _ := quartiles(b)
	worseBy = ratio(mb-ma, ma)
	if !lowerBetter {
		worseBy = -worseBy
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	switch {
	case len(a) < minPairs:
		return "unresolved", worseBy, wins
	case 10*wins >= 9*len(a) && math.Abs(mb-ma) > q3a-q1a:
		return "better", worseBy, wins
	case ratio(q3a-q1a, ma) > bound && !allBetter:
		return "unresolved", worseBy, wins
	case worseBy > bound:
		return "worse", worseBy, wins
	}
	return "unchanged", worseBy, wins
}

// exactPrefixes name the per-layer counts that must repeat exactly across
// every traced run of both sides.
var exactPrefixes = []string{"sim.", "core.dispatch."}

// runCompare prints, per workload and end-to-end metric, each side's
// median, quartiles and spread (interquartile range over median), the
// change against the bound and a verdict, and flags any exact per-layer
// count that differs. It returns the exit code: 2 for unusable input, 1
// when a metric is worse or a count differs.
func runCompare(w io.Writer, benchPath string, args []string) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench -compare A.json... -- B.json...")
		return 2
	}
	bf, err := readBenchFile(benchPath)
	if err == nil {
		var ra, rb map[string][]run
		if ra, err = loadRuns(args[:sep]); err == nil {
			if rb, err = loadRuns(args[sep+1:]); err == nil {
				return compareRuns(w, bf, ra, rb)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// compareRuns is runCompare on loaded runs.
func compareRuns(w io.Writer, bf benchFile, ra, rb map[string][]run) int {
	code := 0
	var names []string
	for name := range ra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pa, pb, err := pairRuns(ra[name], rb[name])
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: refusing to compare: %v\n", name, err)
			return 2
		}
		if len(pa) > 0 {
			fmt.Fprintf(w, "%s (%d pairs)\n", name, len(pa))
		}
		for _, m := range bf.EndToEnd {
			if len(pa) == 0 {
				break
			}
			a, b := make([]float64, len(pa)), make([]float64, len(pb))
			for i := range pa {
				a[i], b[i] = pa[i].Metrics[m.Name].Value, pb[i].Metrics[m.Name].Value
			}
			v, worseBy, wins := verdict(a, b, m.Better == "lower", m.Bound)
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			fmt.Fprintf(w, "  %-12s A %-11.5g [%.5g, %.5g] spread %5.2f%%  B %-11.5g [%.5g, %.5g] spread %5.2f%%  %-8s worse by %+6.2f%% (bound %.0f%%)  wins %2d/%d  %s%s\n",
				m.Name, ma, q1a, q3a, 100*ratio(q3a-q1a, ma), mb, q1b, q3b, 100*ratio(q3b-q1b, mb),
				m.Unit, 100*worseBy, 100*m.Bound, wins, len(pa), v, wallMedians(pa, pb, m.Name, m.Better == "lower"))
			if v == "worse" {
				code = 1
			}
		}
		if diff := exactDiffs(append(append([]run(nil), ra[name]...), rb[name]...)); len(diff) > 0 {
			code = 1
			for _, d := range diff {
				fmt.Fprintf(w, "  FLAG %s\n", d)
			}
		}
	}
	return code
}

// wallMedians renders both sides' medians of the metric's unscaled
// wall-time value (wall.<name>, kept in the result records), so that a
// difference the calibration factor divides out still shows; "" for a
// metric without one.
func wallMedians(pa, pb []result, name string, lowerBetter bool) string {
	a, b := make([]float64, 0, len(pa)), make([]float64, 0, len(pb))
	for i := range pa {
		ma, okA := pa[i].Metrics["wall."+name]
		mb, okB := pb[i].Metrics["wall."+name]
		if !okA || !okB {
			return ""
		}
		a, b = append(a, ma.Value), append(b, mb.Value)
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worseBy := ratio(mb-ma, ma)
	if !lowerBetter {
		worseBy = -worseBy
	}
	return fmt.Sprintf("  wall A %.5g B %.5g worse by %+6.2f%%", ma, mb, 100*worseBy)
}

// exactDiffs lists the exact per-layer counts that differ between traced
// runs.
func exactDiffs(rs []run) []string {
	var traced []result
	for _, r := range rs {
		if r.traced {
			traced = append(traced, r.res)
		}
	}
	var out []string
	if len(traced) < 2 {
		return nil
	}
	first := traced[0].Metrics
	for name, m := range first {
		exact := false
		for _, p := range exactPrefixes {
			exact = exact || strings.HasPrefix(name, p)
		}
		if !exact {
			continue
		}
		for _, t := range traced[1:] {
			if t.Metrics[name].Value != m.Value {
				out = append(out, fmt.Sprintf("%s differs between traced runs: %g vs %g", name, m.Value, t.Metrics[name].Value))
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
