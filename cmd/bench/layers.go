package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// The traced run. Spans and per-layer timings are recorded from this
// file, around calls into each layer's public functions; the engine's own
// telemetry registry supplies its counters and latency histograms; and a
// CPU profile of the traced rounds gives the per-cycle layers' self time,
// where a span per soc.Step would cost more than the work it measures.

// spanRec is one recorded span. Times are nanoseconds since the run began.
type spanRec struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Job      int    `json:"job"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths carry it unconditionally.
type tracer struct {
	workload string
	t0       time.Time

	mu      sync.Mutex
	spans   []spanRec
	curJob  int
	curSpan int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), curJob: -1}
}

// start opens a span and returns its id (0 when t is nil).
func (t *tracer) start(name string, parent, job int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name,
		Workload: t.workload, Job: job, StartNs: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// setJob names the job in flight, which HTTP calls made on other
// goroutines attach their spans to.
func (t *tracer) setJob(span, job int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.curJob, t.curSpan = job, span
	t.mu.Unlock()
}

// job returns the job in flight and its span.
func (t *tracer) job() (job, span int) {
	if t == nil {
		return -1, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.curJob, t.curSpan
}

// roundObs is what one traced round observed.
type roundObs struct {
	// reg receives the engine metrics of the round's campaigns (and, in
	// service rounds, the worker's).
	reg  *telemetry.Registry
	pool *telemetry.Registry // service rounds: the server's pool metrics
	prof bytes.Buffer
	rt0  []metrics.Sample

	jobNs    int64 // wall time of all timed jobs
	engineNs int64 // wall time of the jobs that ran the engine
	sites    int64 // their sites
	colds    int   // cold service jobs
	cachedNs []float64
}

// note records one timed job of the round (no-op on a nil round).
func (o *roundObs) note(ns int64, sites int, cached, service bool) {
	if o == nil {
		return
	}
	o.jobNs += ns
	switch {
	case cached:
		o.cachedNs = append(o.cachedNs, float64(ns))
	default:
		o.engineNs += ns
		o.sites += int64(sites)
		if service {
			o.colds++
		}
	}
}

// layerObs accumulates the traced rounds and the layer probes of a run.
type layerObs struct {
	http     *telemetry.Registry // client-side API call latencies
	rounds   []*roundObs
	pools    []*telemetry.Registry
	profiles [][]byte
	gcCPU    float64
	allocB   float64

	probeCached []float64 // the service probe's cached-job times
}

// runtimeMetrics are read around every traced round.
var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// runtimeValue reads a sample as a float (0 for an unsupported metric).
func runtimeValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// newRound starts observing a traced round: a fresh engine registry, a
// CPU profile and a runtime-metrics baseline.
func (l *layerObs) newRound() (*roundObs, error) {
	o := &roundObs{reg: telemetry.NewRegistry()}
	if err := pprof.StartCPUProfile(&o.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	o.rt0 = readRuntime()
	return o, nil
}

// finish ends the round's profile and folds the round into l.
func (o *roundObs) finish(l *layerObs) {
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	d := make([]float64, len(rt1))
	for i := range rt1 {
		d[i] = runtimeValue(rt1[i]) - runtimeValue(o.rt0[i])
	}
	l.gcCPU += d[0]
	l.allocB += d[1]
	l.profiles = append(l.profiles, o.prof.Bytes())
	if o.pool != nil {
		l.pools = append(l.pools, o.pool)
	}
	l.rounds = append(l.rounds, o)
}

// probeObs holds the layer probes' measurements.
type probeObs struct {
	decodeNs   float64
	arenaNewNs []float64
	cycles     float64
	cyclesNs   float64
	resetNs    []float64
	snapNs     []float64
	restoreNs  []float64
	journalNs  []float64

	goldenCycles, instret, ifStall, memStall, hazStall float64
	icHits, icAll, dcHits, dcAll, busBusy, busCycles   float64

	directNs, coldNs float64
}

// decodeSink keeps the decode probe's results alive.
var decodeSink isa.Inst

// minDecodes is how many isa.Decode calls the decode probe times at least.
const minDecodes = 200_000

// probeSpecs is how many specs the service probe runs.
const probeSpecs = 2

// cycleRuns is how many golden runs per spec the stepping-speed probe
// times.
const cycleRuns = 3

// probe times each layer's public functions on the workload's own
// campaigns: one golden arena per spec (construction, simulated
// statistics, stepping speed, Reset/Snapshot/Restore), instruction
// decode over the programs, journal appends, and a short service probe.
func (r *runner) probe(ctx context.Context) (probeObs, error) {
	var p probeObs
	var words []uint32
	for _, c := range r.camps {
		w, err := programWords(c)
		if err != nil {
			return p, err
		}
		words = append(words, w...)

		t0 := time.Now()
		a, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{})
		if err != nil {
			return p, fmt.Errorf("%s: %w", specKey(c.Spec), err)
		}
		p.arenaNewNs = append(p.arenaNewNs, float64(time.Since(t0).Nanoseconds()))
		p.addGolden(a, c.Core)

		s := a.SoC()
		for k := 0; k < cycleRuns; k++ {
			t0 = time.Now()
			a.Run(fault.None)
			p.cyclesNs += float64(time.Since(t0).Nanoseconds())
			p.cycles += float64(s.Cycle())
		}
		t0 = time.Now()
		st := s.Snapshot()
		p.snapNs = append(p.snapNs, float64(time.Since(t0).Nanoseconds()))
		a.Run(fault.None)
		t0 = time.Now()
		s.Restore(st)
		p.restoreNs = append(p.restoreNs, float64(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		s.Reset()
		p.resetNs = append(p.resetNs, float64(time.Since(t0).Nanoseconds()))

		ns, err := journalProbe(c)
		if err != nil {
			return p, err
		}
		p.journalNs = append(p.journalNs, ns)
	}
	n := 0
	t0 := time.Now()
	for n < minDecodes {
		for _, w := range words {
			decodeSink, _ = isa.Decode(w)
		}
		n += len(words)
	}
	p.decodeNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return p, r.serviceProbe(ctx, &p)
}

// addGolden folds a freshly built arena's golden capture run into the
// simulated statistics.
func (p *probeObs) addGolden(a *core.Arena, id int) {
	res := a.Last()
	p.goldenCycles += float64(res.Cycles)
	p.instret += float64(res.Instret)
	p.ifStall += float64(res.IFStall)
	p.memStall += float64(res.MemStall)
	p.hazStall += float64(res.HazStall)
	s := a.SoC()
	u := s.Cores[id]
	if u.ICache != nil {
		st := u.ICache.Stats()
		p.icHits += float64(st.Hits)
		p.icAll += float64(st.Hits + st.Misses)
	}
	if u.DCache != nil {
		st := u.DCache.Stats()
		p.dcHits += float64(st.Hits)
		p.dcAll += float64(st.Hits + st.Misses)
	}
	p.busBusy += s.Bus.Utilization() * float64(s.Bus.Cycle())
	p.busCycles += float64(s.Bus.Cycle())
}

// programWords assembles the campaign's program the way the engine does
// for a spec-built job (one routine under its strategy, then HALT).
func programWords(c *serve.Campaign) ([]uint32, error) {
	b := asm.NewBuilder()
	if err := c.Job.Strategy.Emit(b, c.Job.Routine); err != nil {
		return nil, err
	}
	b.Halt()
	prog, err := b.Assemble(c.Job.CodeBase)
	if err != nil {
		return nil, err
	}
	return prog.Words, nil
}

// journalRecords is how many verdicts the journal probe appends per spec.
const journalRecords = 64

// journalProbe appends a verdict for each of the first journalRecords
// sites of c to a temporary journal and returns the mean nanoseconds per
// Journal.Record.
func journalProbe(c *serve.Campaign) (float64, error) {
	dir, err := os.MkdirTemp("", "bench-journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := fault.CreateJournal(filepath.Join(dir, "j.jsonl"), c.Header)
	if err != nil {
		return 0, err
	}
	n := min(journalRecords, len(c.Sites))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := j.Record(i, fault.SiteResult{Site: c.Sites[i]}, "", ""); err != nil {
			j.Close()
			return 0, err
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
	return ns, j.Close()
}

// serviceProbe runs probeSpecs seeded specs directly and through a fresh
// campaign server (cold, then one cached resubmission each), so every
// workload's traced run measures the service layer on its own specs.
func (r *runner) serviceProbe(ctx context.Context, p *probeObs) error {
	s, err := startService(r.workers, &timingTransport{tr: r.tr, reg: r.lay.http}, nil)
	if err != nil {
		return err
	}
	defer s.close()
	for _, i := range r.rng.Perm(len(r.camps))[:probeSpecs] {
		p.directNs += float64(r.campaignJob(i, nil))
		p.coldNs += float64(r.serviceJob(ctx, s, submission{spec: i}, true))
		cached := r.serviceJob(ctx, s, submission{spec: i, cached: true}, true)
		r.lay.probeCached = append(r.lay.probeCached, float64(cached))
	}
	r.lay.pools = append(r.lay.pools, s.pool)
	return nil
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// dispatchNames are the arena dispatch paths, in fault.DispatchPath order.
func dispatchNames() []string {
	out := make([]string, fault.NumDispatchPaths)
	for p := range out {
		out[p] = fault.DispatchPath(p).String()
	}
	return out
}

// layerDefs are the per-layer metrics every traced run reports, in order
// (BENCHMARK.json's per_layer list). The traced run's table in the trace
// directory adds the metrics that exist only on some workloads.
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{"sim.golden_cycles", "cycles"},
		{"sim.ipc", "instr/cycle"},
		{"sim.if_stall_cycles", "cycles"},
		{"sim.mem_stall_cycles", "cycles"},
		{"sim.haz_stall_cycles", "cycles"},
		{"sim.icache_hit_ratio", "fraction"},
		{"sim.dcache_hit_ratio", "fraction"},
		{"sim.bus_utilization", "fraction"},
		{"sim.fc_pct", "%"},
		{"sim.detected_sites", "count"},
		{"isa.decode_ns", "ns"},
	}
	for _, m := range profModules {
		defs = append(defs, metricDef{m + ".self_share", "fraction"})
	}
	defs = append(defs,
		metricDef{"soc.cycles_per_s", "cycles/s"},
		metricDef{"soc.reset_us", "us"},
		metricDef{"soc.snapshot_us", "us"},
		metricDef{"soc.restore_us", "us"},
		metricDef{"core.arena_new_ms", "ms"},
		metricDef{"core.campaign_overhead_frac", "fraction"},
		metricDef{"core.run_us.full_replay", "us"},
	)
	for _, p := range dispatchNames() {
		defs = append(defs, metricDef{"core.dispatch." + p, "count"})
	}
	defs = append(defs,
		metricDef{"core.shortcut_ratio", "fraction"},
		metricDef{"core.early_exits", "count"},
		metricDef{"core.health_checks", "count"},
		metricDef{"core.quarantines", "count"},
		metricDef{"fault.worker_idle_frac", "fraction"},
		metricDef{"fault.journal_record_us", "us"},
		metricDef{"serve.build_ms", "ms"},
	)
	for _, c := range httpCalls {
		defs = append(defs, metricDef{"serve." + c + "_ms", "ms"})
	}
	return append(defs,
		metricDef{"serve.cached_job_ms_p50", "ms"},
		metricDef{"serve.cached_job_ms_p90", "ms"},
		metricDef{"serve.shards_per_job", "count"},
		metricDef{"serve.shards_expired", "count"},
		metricDef{"serve.cache_hit_ratio", "fraction"},
		metricDef{"serve.overhead_ratio", "ratio"},
		metricDef{"runtime.gc_cpu_frac", "fraction"},
		metricDef{"runtime.alloc_bytes_per_site", "bytes"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// layers computes the traced run's per-layer table: every layerDefs
// metric plus the workload-specific extras.
func (r *runner) layers(p probeObs) (map[string]metric, error) {
	l := &r.lay
	out := map[string]metric{}
	set := func(name, unit string, v float64, n int) { out[name] = metric{Value: v, Unit: unit, N: n} }
	nSpecs := len(r.w.specs)

	// Simulated statistics of the census: exact, seed-independent.
	set("sim.golden_cycles", "cycles", p.goldenCycles, nSpecs)
	set("sim.ipc", "instr/cycle", ratio(p.instret, p.goldenCycles), nSpecs)
	set("sim.if_stall_cycles", "cycles", p.ifStall, nSpecs)
	set("sim.mem_stall_cycles", "cycles", p.memStall, nSpecs)
	set("sim.haz_stall_cycles", "cycles", p.hazStall, nSpecs)
	set("sim.icache_hit_ratio", "fraction", ratio(p.icHits, p.icAll), nSpecs)
	set("sim.dcache_hit_ratio", "fraction", ratio(p.dcHits, p.dcAll), nSpecs)
	set("sim.bus_utilization", "fraction", ratio(p.busBusy, p.busCycles), nSpecs)
	var det, tot float64
	for _, c := range r.cov {
		det += float64(c[0])
		tot += float64(c[1])
	}
	set("sim.fc_pct", "%", 100*ratio(det, tot), len(r.cov))
	set("sim.detected_sites", "count", det, len(r.cov))

	set("isa.decode_ns", "ns", p.decodeNs, minDecodes)
	shares, err := selfShares(l.profiles)
	if err != nil {
		return nil, err
	}
	for _, m := range profModules {
		set(m+".self_share", "fraction", shares[m], len(l.profiles))
	}
	set("soc.cycles_per_s", "cycles/s", ratio(p.cycles, p.cyclesNs/1e9), nSpecs)
	set("soc.reset_us", "us", percentile(p.resetNs, 0.5)/1e3, nSpecs)
	set("soc.snapshot_us", "us", percentile(p.snapNs, 0.5)/1e3, nSpecs)
	set("soc.restore_us", "us", percentile(p.restoreNs, 0.5)/1e3, nSpecs)
	set("core.arena_new_ms", "ms", percentile(p.arenaNewNs, 0.5)/1e6, nSpecs)

	// Engine registries. Counts come from the first traced round, which
	// runs every spec once, so they are exact; times sum over all traced
	// rounds.
	first := l.rounds[0].reg
	var dispatch fault.DispatchStats
	for i, name := range dispatchNames() {
		dispatch[i] = first.Counter("arena_dispatch_" + name + "_total").Value()
		set("core.dispatch."+name, "count", float64(dispatch[i]), nSpecs)
	}
	set("core.shortcut_ratio", "fraction", ratio(float64(dispatch.Shortcuts()), float64(dispatch.Total())), int(dispatch.Total()))
	set("core.early_exits", "count", float64(first.Counter("arena_early_exits_total").Value()), nSpecs)
	set("core.health_checks", "count", float64(first.Counter("arena_health_checks_total").Value()), nSpecs)
	set("core.quarantines", "count", float64(first.Counter("arena_quarantines_total").Value()), nSpecs)
	var runNs, busyNs, jobNs, engineNs, sites float64
	for i, name := range dispatchNames() {
		var sum, count int64
		for _, o := range l.rounds {
			h := o.reg.Histogram("arena_run_ns_" + name)
			sum += h.Sum()
			count += h.Count()
		}
		runNs += float64(sum)
		if fault.DispatchPath(i) == fault.DispatchFullReplay || count > 0 {
			set("core.run_us."+name, "us", ratio(float64(sum), float64(count))/1e3, int(count))
		}
	}
	for _, o := range l.rounds {
		busyNs += float64(o.reg.Counter("campaign_worker_busy_ns_total").Value())
		jobNs += float64(o.jobNs)
		engineNs += float64(o.engineNs)
		sites += float64(o.sites)
	}
	capacity := float64(r.workers) * engineNs
	set("core.campaign_overhead_frac", "fraction", 1-ratio(runNs, capacity), len(l.rounds))
	set("fault.worker_idle_frac", "fraction", 1-ratio(busyNs, capacity), len(l.rounds))
	set("fault.journal_record_us", "us", percentile(p.journalNs, 0.5)/1e3, nSpecs*journalRecords)

	// Service layer.
	set("serve.build_ms", "ms", percentile(nsFloats(r.setupNs), 0.5)/float64(nSpecs)/1e6, len(r.setupNs)*nSpecs)
	for _, c := range httpCalls {
		h := l.http.Histogram("bench_http_" + c + "_ns")
		set("serve."+c+"_ms", "ms", h.Mean()/1e6, int(h.Count()))
	}
	cached := append([]float64(nil), l.probeCached...)
	colds := probeSpecs
	for _, o := range l.rounds {
		cached = append(cached, o.cachedNs...)
		colds += o.colds
	}
	set("serve.cached_job_ms_p50", "ms", percentile(cached, 0.5)/1e6, len(cached))
	set("serve.cached_job_ms_p90", "ms", percentile(cached, 0.9)/1e6, len(cached))
	var leased, expired, fromCache, simulated float64
	for _, pool := range l.pools {
		leased += float64(pool.Counter("serve_shards_leased_total").Value())
		expired += float64(pool.Counter("serve_shards_expired_total").Value())
		fromCache += float64(pool.Counter("serve_sites_from_cache_total").Value())
		simulated += float64(pool.Counter("serve_sites_simulated_total").Value())
	}
	set("serve.shards_per_job", "count", ratio(leased, float64(colds)), colds)
	set("serve.shards_expired", "count", expired, colds)
	set("serve.cache_hit_ratio", "fraction", ratio(fromCache, fromCache+simulated), len(cached)+colds)
	set("serve.overhead_ratio", "ratio", ratio(p.coldNs, p.directNs), probeSpecs)

	// GC CPU time over the CPU time the traced jobs had (workers x wall).
	set("runtime.gc_cpu_frac", "fraction", ratio(l.gcCPU*1e9, float64(r.workers)*jobNs), len(l.rounds))
	set("runtime.alloc_bytes_per_site", "bytes", ratio(l.allocB, sites), int(sites))

	untraced, traced := r.throughput(false, true), r.throughput(true, true)
	set("trace.overhead_ratio", "ratio", ratio(traced, untraced), len(r.samples))
	return out, nil
}

// throughput is sites/s over the untraced or traced cold jobs, in
// reference or wall seconds.
func (r *runner) throughput(traced, ref bool) float64 {
	var sites, ns float64
	for _, s := range r.samples {
		if s.traced == traced && !s.cached {
			sites += float64(s.sites)
			if ref {
				ns += s.ref
			} else {
				ns += float64(s.ns)
			}
		}
	}
	return ratio(sites, ns/1e9)
}

// writeTrace writes the traced run's artifacts into dir: the spans, one
// CPU profile per traced round (go tool pprof merges them) and the
// per-layer table.
func writeTrace(dir string, r *runner, table map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	prefix := filepath.Join(dir, r.w.name)
	if err := writeJSON(prefix+".spans.json", r.tr.spans); err != nil {
		return err
	}
	for i, p := range r.lay.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", prefix, i), p, 0o644); err != nil {
			return err
		}
	}
	return writeJSON(prefix+".layers.json", table)
}
