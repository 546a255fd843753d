package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// workload is one benchmark input set: a fixed census of campaign specs
// that every round runs once, in an order drawn from the seed.
type workload struct {
	name string
	// specs is the census. Every round runs each spec once, so runs with
	// different seeds time the same work; drawing specs at random instead
	// moved job_s_p50 by up to 39% between seeds (the job times of one
	// spec space span 20 ms to 2.6 s), far beyond any usable bound.
	specs []serve.Spec
	// service submits each spec to an in-process campaign server, cold
	// once and then as cachedPerCold full cache hits, instead of running
	// it directly.
	service bool
	// roundS is the nominal duration of one round on the reference box
	// (2-CPU Xeon, GOMAXPROCS 2). The number of rounds is fixed from it and
	// -seconds, so both sides of a comparison do the same work.
	roundS float64
}

// cachedPerCold is how many times service-mix resubmits each spec after
// its cold submission.
const cachedPerCold = 3

var strategies = []string{"plain", "cache", "tcm"}

// specGrid enumerates routine x core x strategy x multicore at one
// bitstep.
func specGrid(routines []string, faults string, multicore []bool, bitstep int) []serve.Spec {
	var out []serve.Spec
	for _, r := range routines {
		for c := 0; c < soc.NumCores; c++ {
			for _, st := range strategies {
				for _, mc := range multicore {
					out = append(out, serve.Spec{Routine: r, Core: c, Strategy: st,
						Multicore: mc, BitStep: bitstep, Faults: faults})
				}
			}
		}
	}
	return out
}

// bitstep1Slice is the census's share of full-universe traffic: core 0
// alone under each strategy at bitstep 1, the default of cmd/faultsim and
// serve.Spec and the setting of the paper's tables. A bitstep-1 forwarding
// job has 7 to 8 times the sites of a bitstep-8 one (1176 against 168 on
// core 0) and runs for 0.1-1 s, so the whole grid at bitstep 1 would leave
// a 20-second run too few jobs for a p90; the rest of each grid runs at
// bitstep 8.
func bitstep1Slice(routine, faults string) []serve.Spec {
	var out []serve.Spec
	for _, st := range strategies {
		out = append(out, serve.Spec{Routine: routine, Strategy: st, BitStep: 1, Faults: faults})
	}
	return out
}

// workloads returns the benchmark's workloads in their fixed run order.
// The ICU universe has no data bits, so bitstep does not change an ICU
// campaign; ICU specs use bitstep 1 throughout.
func workloads() []workload {
	both := []bool{false, true}
	fwd := []string{"forwarding"}
	census := func(faults string) []serve.Spec {
		return append(specGrid(fwd, faults, both, 8), bitstep1Slice("forwarding", faults)...)
	}
	var ctl []serve.Spec
	ctl = append(ctl, specGrid([]string{"hdcu"}, "stuckat", both, 8)...)
	ctl = append(ctl, bitstep1Slice("hdcu", "stuckat")...)
	ctl = append(ctl, specGrid([]string{"icu"}, "stuckat", both, 1)...)
	mc := []bool{true}
	var mix []serve.Spec
	mix = append(mix, specGrid(fwd, "stuckat", mc, 8)...)
	mix = append(mix, specGrid(fwd, "transition", mc, 8)...)
	mix = append(mix, bitstep1Slice("forwarding", "transition")...)
	mix = append(mix, specGrid([]string{"hdcu"}, "stuckat", mc, 8)...)
	mix = append(mix, specGrid([]string{"icu"}, "stuckat", mc, 1)...)
	return []workload{
		// Every site is a full replay, so host time is soc.Step and below:
		// where inner-loop and stuck-at dispatch changes must show.
		{name: "stuckat-fwd", specs: census("stuckat"), roundS: 3.6},
		// The same specs with transition faults: most sites take the
		// checkpoint, fast-forward or golden shortcut, so checkpoint and
		// Snapshot/Restore work shows here, and stuck-at-only changes
		// should not.
		{name: "transition-fwd", specs: census("transition"), roundS: 1.25},
		// The longest runs and the ICU paths: the only crashed verdicts,
		// early exits and health checks. ICU campaigns have 48 sites, so
		// golden capture and arena set-up dominate them.
		{name: "control-hdcu-icu", specs: ctl, roundS: 6.6},
		// The service write path (leases, verdict batches, journal
		// appends) and read path (cache hits folding the store): a change
		// that helps one and costs the other shows here.
		{name: "service-mix", specs: mix, service: true, roundS: 7.3},
	}
}

// findWorkload resolves a workload name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// specKey names a spec compactly, e.g. "forwarding/c2/tcm/mc/bs8/stuckat".
// The benchmark's specs spell out every field, so they are already
// normalized.
func specKey(s serve.Spec) string {
	mc := "sc"
	if s.Multicore {
		mc = "mc"
	}
	return fmt.Sprintf("%s/c%d/%s/%s/bs%d/%s", s.Routine, s.Core, s.Strategy, mc, s.BitStep, s.Faults)
}

// submission is one job of a round: a spec index, and for service-mix
// whether it is a resubmission that must be a full cache hit.
type submission struct {
	spec   int
	cached bool
}

// schedule draws one round's job order from rng. Campaign workloads run
// the census in a random order. service-mix submits every spec cold, in a
// random order, and then its cachedPerCold resubmissions, shuffled
// together. The server keeps every job of a round, so its live heap grows
// by the same amount whatever the order, but a round's peak resident set
// comes from whichever large cold job runs on the largest heap: with cold
// jobs and resubmissions interleaved at random, peak_rss_mb moved by 11%
// (interquartile range over median) between ten seeds, and with the cold
// jobs first by 1.3%.
func schedule(w workload, rng *rand.Rand) []submission {
	out := make([]submission, 0, len(w.specs))
	for _, s := range rng.Perm(len(w.specs)) {
		out = append(out, submission{spec: s})
	}
	if !w.service {
		return out
	}
	var again []submission
	for s := range w.specs {
		for k := 0; k < cachedPerCold; k++ {
			again = append(again, submission{spec: s, cached: true})
		}
	}
	rng.Shuffle(len(again), func(i, j int) { again[i], again[j] = again[j], again[i] })
	return append(out, again...)
}

// newRNG returns the seeded generator every draw of a run comes from.
func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x62656e6368))
}

// rounds is the number of rounds a run of w measures.
func rounds(w workload, seconds float64, traced bool) int {
	n := int(seconds / w.roundS)
	if traced && n < 2 {
		// A traced run alternates untraced and traced rounds to measure
		// the tracing overhead, so it needs one of each.
		n = 2
	}
	if n < 1 {
		n = 1
	}
	return n
}

//go:embed reference.json
var referenceJSON []byte

// loadReference returns the reference-mode report digests by spec key.
func loadReference() (map[string]string, error) {
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// digest is the hex SHA-256 of a rendered report.
func digest(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// referenceDigests runs every spec of every workload in reference mode
// (full budget, no early exit, no shortcuts) and returns the digests of
// the rendered reports — the content of reference.json.
func referenceDigests(workers int) (map[string]string, error) {
	refs := map[string]string{}
	for _, w := range workloads() {
		for _, spec := range w.specs {
			key := specKey(spec)
			if _, done := refs[key]; done {
				continue
			}
			c, err := spec.Build()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget,
				core.CampaignOptions{Workers: workers, Reference: true})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			blob, err := serve.MarshalReport(rep)
			if err != nil {
				return nil, err
			}
			refs[key] = digest(blob)
		}
	}
	return refs, nil
}

// sample is one timed job.
type sample struct {
	spec   int
	sites  int
	ns     int64
	ref    float64 // ns in reference nanoseconds (calib.go)
	cached bool
	traced bool
}

// runner measures one workload.
type runner struct {
	w       workload
	workers int
	refs    map[string]string
	rng     *rand.Rand
	tr      *tracer // nil outside traced runs
	root    int     // the run's root span
	cal     *calibrator

	camps   []*serve.Campaign // built in set-up, index-aligned with w.specs
	setupNs []int64           // one total per set-up pass
	setupF  float64           // set-up's wall-to-reference factor
	samples []sample
	rssMB   []float64      // peak resident set of each untraced timed round
	cov     map[int][2]int // per spec: detected and total sites of its report

	attempted, failed int
	failures          []string

	lay layerObs // traced rounds and layer probes (layers.go)
}

func newRunner(w workload, seed int64, workers int, refs map[string]string, traced bool) *runner {
	r := &runner{w: w, workers: workers, refs: refs, rng: newRNG(seed), cov: map[int][2]int{},
		cal: newCalibrator(workers)}
	if traced {
		r.tr = newTracer(w.name)
		r.root = r.tr.start("workload", 0, -1)
		r.lay.http = telemetry.NewRegistry()
	}
	return r
}

// setupPasses is how many times set-up builds the whole spec census; the
// median pass is setup_s.
const setupPasses = 9

// maxFailures caps the failure messages a result keeps.
const maxFailures = 10

// fail records one failed job.
func (r *runner) fail(err error) {
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, err.Error())
	}
}

// check counts one attempted job and compares its rendered report with
// the reference-mode digest of spec i; a panicked verdict fails it too.
func (r *runner) check(i int, blob []byte, err error) {
	r.attempted++
	key := specKey(r.w.specs[i])
	var rep struct{ Detected, Total, Panics int }
	if err == nil {
		if want, ok := r.refs[key]; !ok {
			err = errors.New("no reference digest")
		} else if digest(blob) != want {
			err = errors.New("report differs from reference mode")
		} else if err = json.Unmarshal(blob, &rep); err == nil && rep.Panics != 0 {
			err = fmt.Errorf("%d panicked verdicts", rep.Panics)
		}
	}
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", key, err))
		return
	}
	if _, seen := r.cov[i]; !seen {
		r.cov[i] = [2]int{rep.Detected, rep.Total}
	}
}

// setup builds every spec of the census setupPasses times after one
// warm-up Build, keeping the last pass's campaigns for the timed phase.
// For service-mix each pass also starts and stops a campaign server.
func (r *runner) setup() error {
	if _, err := r.w.specs[0].Build(); err != nil {
		return fmt.Errorf("warm-up build: %w", err)
	}
	k := len(r.cal.ns)
	r.cal.sample()
	for pass := 0; pass < setupPasses; pass++ {
		span := r.tr.start("setup", r.root, -1)
		t0 := time.Now()
		camps := make([]*serve.Campaign, len(r.w.specs))
		for i, spec := range r.w.specs {
			b := r.tr.start("Build", span, -1)
			c, err := spec.Build()
			r.tr.end(b)
			if err != nil {
				return fmt.Errorf("%s: %w", specKey(spec), err)
			}
			camps[i] = c
		}
		if r.w.service {
			s, err := startService(r.workers, nil, nil)
			if err != nil {
				return err
			}
			s.close()
		}
		r.setupNs = append(r.setupNs, time.Since(t0).Nanoseconds())
		r.tr.end(span)
		r.camps = camps
		r.cal.sample()
	}
	r.setupF = r.cal.factorSince(k)
	return nil
}

// measure runs set-up, one untimed warm-up job and the timed rounds; a
// traced run alternates untraced and traced rounds.
func (r *runner) measure(ctx context.Context, seconds float64) error {
	if err := r.setup(); err != nil {
		return err
	}
	scheds := make([][]submission, rounds(r.w, seconds, r.tr != nil))
	for i := range scheds {
		scheds[i] = schedule(r.w, r.rng)
	}
	warm := []submission{{spec: scheds[0][0].spec}}
	if err := r.round(ctx, warm, false, false); err != nil {
		return err
	}
	for i, sched := range scheds {
		if err := r.round(ctx, sched, r.tr != nil && i%2 == 1, true); err != nil {
			return err
		}
	}
	return nil
}

// round runs one schedule as a closed loop, one job in flight, sampling
// the box's speed between jobs to put the round's times in reference
// seconds. Service rounds get a fresh server, so every first submission
// is cold.
func (r *runner) round(ctx context.Context, sched []submission, traced, timed bool) error {
	k, first := len(r.cal.ns), len(r.samples)
	defer func() {
		r.cal.sample()
		f := r.cal.factorSince(k)
		for i := first; i < len(r.samples); i++ {
			r.samples[i].ref = float64(r.samples[i].ns) * f
		}
	}()
	rss := timed && !traced
	if rss {
		resetPeakRSS()
	}
	var o *roundObs
	if traced {
		var err error
		if o, err = r.lay.newRound(); err != nil {
			return err
		}
	}
	var s *service
	if r.w.service {
		var tt *timingTransport
		var wreg *telemetry.Registry
		if traced {
			tt, wreg = &timingTransport{tr: r.tr, reg: r.lay.http}, o.reg
		}
		var err error
		if s, err = startService(r.workers, tt, wreg); err != nil {
			if o != nil {
				o.finish(&r.lay)
			}
			return err
		}
		defer s.close()
	}
	for _, sub := range sched {
		// Every job starts on a collected heap, as a campaign in a fresh
		// cmd/faultsim process does, so no job pays for the garbage of the
		// one before it and job times do not depend on the drawn order.
		runtime.GC()
		var ns int64
		if s != nil {
			ns = r.serviceJob(ctx, s, sub, traced)
		} else {
			ns = r.campaignJob(sub.spec, o)
		}
		r.cal.after(time.Duration(ns))
		if !timed {
			continue
		}
		sites := len(r.camps[sub.spec].Sites)
		r.samples = append(r.samples, sample{spec: sub.spec, sites: sites, ns: ns, cached: sub.cached, traced: traced})
		o.note(ns, sites, sub.cached, s != nil)
	}
	if rss {
		r.rssMB = append(r.rssMB, peakRSSMB())
	}
	if o != nil {
		if s != nil {
			o.pool = s.pool
		}
		o.finish(&r.lay)
	}
	return nil
}

// campaignJob runs spec i directly through core.RunCampaignOpts — the path
// cmd/faultsim takes — checks the report and returns the job's wall time.
// A non-nil o traces the job and attaches the engine telemetry.
func (r *runner) campaignJob(i int, o *roundObs) int64 {
	c := r.camps[i]
	opt := core.CampaignOptions{Workers: r.workers}
	var tr *tracer
	if o != nil {
		tr, opt.Telemetry = r.tr, o.reg
	}
	job := len(r.samples)
	span := tr.start("job", r.root, job)
	run := tr.start("RunCampaignOpts", span, job)
	t0 := time.Now()
	rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget, opt)
	ns := time.Since(t0).Nanoseconds()
	tr.end(run)
	chk := tr.start("reference_check", span, job)
	var blob []byte
	if err == nil {
		blob, err = serve.MarshalReport(rep)
	}
	r.check(i, blob, err)
	tr.end(chk)
	tr.end(span)
	return ns
}

// serviceJob submits one spec to s, times submit → report and checks the
// report.
func (r *runner) serviceJob(ctx context.Context, s *service, sub submission, traced bool) int64 {
	var tr *tracer
	if traced {
		tr = r.tr
	}
	job := len(r.samples)
	span := tr.start("job", r.root, job)
	tr.setJob(span, job)
	t0 := time.Now()
	blob, err := s.run(ctx, r.camps[sub.spec].Spec, sub.cached)
	ns := time.Since(t0).Nanoseconds()
	chk := tr.start("reference_check", span, job)
	r.check(sub.spec, blob, err)
	tr.end(chk)
	tr.end(span)
	return ns
}

// e2eDefs are the end-to-end metrics every untraced run reports, in order
// (BENCHMARK.json's end_to_end list).
var e2eDefs = []metricDef{
	{"sites_per_s", "sites/s"},
	{"job_s_p50", "s"},
	{"job_s_p90", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// e2e computes the end-to-end metrics from the untraced samples, in
// reference seconds (calib.go), plus their wall-time values under "wall."
// names and the run's overall speed factor. Every submission is a job;
// sites_per_s counts the jobs that ran the engine (all of them, or the
// cold ones in service-mix). peak_rss_mb is the median round's peak.
func (r *runner) e2e() map[string]metric {
	var ref, wall []float64
	for _, s := range r.samples {
		if !s.traced {
			ref = append(ref, s.ref/1e9)
			wall = append(wall, float64(s.ns)/1e9)
		}
	}
	setup := percentile(nsFloats(r.setupNs), 0.5) / 1e9
	n := len(ref)
	out := map[string]metric{
		"peak_rss_mb":        {Value: percentile(r.rssMB, 0.5), Unit: "MB", N: len(r.rssMB)},
		"bench.speed_factor": {Value: r.cal.factorSince(0), Unit: "ratio", N: len(r.cal.ns)},
	}
	for _, v := range []struct {
		prefix string
		jobs   []float64
		setup  float64
		sps    float64
	}{
		{"", ref, setup * r.setupF, r.throughput(false, true)},
		{"wall.", wall, setup, r.throughput(false, false)},
	} {
		out[v.prefix+"sites_per_s"] = metric{Value: v.sps, Unit: "sites/s", N: n}
		out[v.prefix+"job_s_p50"] = metric{Value: percentile(v.jobs, 0.50), Unit: "s", N: n}
		out[v.prefix+"job_s_p90"] = metric{Value: percentile(v.jobs, 0.90), Unit: "s", N: n}
		out[v.prefix+"setup_s"] = metric{Value: v.setup, Unit: "s", N: len(r.setupNs)}
	}
	return out
}

// defaultWorkers is the arena-pool size of every campaign job.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
