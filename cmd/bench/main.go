package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// record is one invocation's result file: provenance plus one result per
// workload run.
type record struct {
	Provenance provenance `json:"provenance"`
	Workloads  []result   `json:"workloads"`
}

// result is one workload's outcome. Metrics holds the end-to-end metrics
// of an untraced run, or the full per-layer table of a traced one.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed every draw of the run comes from")
	seconds := flag.Float64("seconds", 20, "nominal measuring time per workload, in whole rounds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead of the end-to-end ones")
	traceDir := flag.String("trace-dir", "", "traced run: write spans, CPU profiles and the per-layer table into this directory")
	out := flag.String("out", "", "write the result record (provenance, metrics with sample counts) to this file")
	compare := flag.Bool("compare", false, "compare result files: -compare A.json... -- B.json...")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "BENCHMARK.json, for the bounds -compare applies")
	writeRef := flag.String("write-reference", "", "run every spec in reference mode and write the report digests to this file")
	flag.Parse()

	switch {
	case *compare:
		os.Exit(runCompare(os.Stdout, *benchmark, flag.Args()))
	case *writeRef != "":
		refs, err := referenceDigests(defaultWorkers())
		fail(err)
		fail(writeJSON(*writeRef, refs))
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	ws := workloads()
	if *workloadName != "all" {
		w, err := findWorkload(*workloadName)
		fail(err)
		ws = []workload{w}
	}
	refs, err := loadReference()
	fail(err)

	rec := record{Provenance: newProvenance(*seed, *seconds, *trace == 1)}
	defs := e2eDefs
	if *trace == 1 {
		defs = layerDefs
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueOnly `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueOnly{}}
	for _, w := range ws {
		res, err := runWorkload(context.Background(), w, *seed, *seconds, *trace == 1, *traceDir, refs)
		fail(err)
		rec.Workloads = append(rec.Workloads, res)
		printResult(os.Stdout, res, defs)
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, d := range defs {
			name := d.name
			if len(ws) > 1 {
				name = w.name + "." + d.name
			}
			line.Metrics[name] = valueOnly{res.Metrics[d.name].Value, d.unit}
		}
	}
	if *out != "" {
		fail(writeJSON(*out, rec))
	}
	blob, err := json.Marshal(line)
	fail(err)
	fmt.Println(string(blob))
}

// valueOnly is a metric as the result line prints it.
type valueOnly struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload measures one workload: the end-to-end metrics, or with
// traced set the per-layer table (whose artifacts go to traceDir when it
// is not empty).
func runWorkload(ctx context.Context, w workload, seed int64, seconds float64, traced bool, traceDir string, refs map[string]string) (result, error) {
	r := newRunner(w, seed, defaultWorkers(), refs, traced)
	if err := r.measure(ctx, seconds); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	var ms map[string]metric
	if traced {
		p, err := r.probe(ctx)
		if err != nil {
			return result{}, fmt.Errorf("%s: layer probe: %w", w.name, err)
		}
		r.tr.end(r.root)
		if ms, err = r.layers(p); err != nil {
			return result{}, fmt.Errorf("%s: %w", w.name, err)
		}
		if traceDir != "" {
			if err := writeTrace(traceDir, r, ms); err != nil {
				return result{}, err
			}
		}
	} else {
		ms = r.e2e()
	}
	return result{
		Workload:  w.name,
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Failures:  r.failures,
		Metrics:   ms,
	}, nil
}

// printResult renders one result as a table of the given metrics.
func printResult(w io.Writer, res result, defs []metricDef) {
	fmt.Fprintf(w, "%s: %d jobs, %d failed\n", res.Workload, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "  %-30s %14.6g %-12s n=%d\n", d.name, m.Value, d.unit, m.N)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", strings.TrimSpace(err.Error()))
		os.Exit(1)
	}
}
