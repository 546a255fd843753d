package fault

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// RunFunc executes the self-test procedure in a fixed environment with the
// given injection plane and reports the final test signature plus whether
// the run completed cleanly (halted without wedging or timing out).
// Simulate gives each worker goroutine its own RunFunc, so a runner may own
// mutable state (a reusable simulator arena); a stateless RunFunc may fill
// every slot, in which case it must be safe for concurrent calls.
type RunFunc func(p Plane) (sig uint32, ok bool)

// SiteResult records one fault's outcome. Crashed runs record signature 0:
// the residual register value of a wedged or timed-out run is noise that
// depends on where the watchdog fired, and canonicalising it keeps reports
// comparable across campaign engines. A Panicked run is the canonical
// verdict for a simulator panic caught at the per-run recover boundary:
// signature 0, Crashed, Detected — the fault provoked behaviour the model
// itself cannot represent. The panic message and stack live in the
// Report's Anomalies, not here, so SiteResult stays ==-comparable and
// bit-identical across resumed campaigns.
type SiteResult struct {
	Site      Site
	Detected  bool
	Signature uint32
	Crashed   bool // run wedged or timed out (counted as detected)
	Panicked  bool // run panicked; caught at the per-run recover boundary
}

// Anomaly is the diagnostic record of one caught panic. Index is the site
// index in Results, or -1 for the golden run.
type Anomaly struct {
	Index int
	Site  Site
	Msg   string
	Stack string
}

// Report summarises a campaign. Panics counts sites whose verdict is
// Panicked; Anomalies carries their diagnostics in site order (diagnostic
// only — resumed campaigns reproduce verdicts bit-identically, but a
// journaled stack is reported by the run that caught it, so equality
// checks between reports should compare Results and counts).
type Report struct {
	Golden    uint32
	GoldenOK  bool
	Total     int
	Detected  int
	Panics    int
	Results   []SiteResult
	Anomalies []Anomaly `json:",omitempty"`

	// Dispatch counts how the engine served each site (filled by
	// core.Campaign.Run from its arenas). It describes execution
	// strategy, not verdicts: the optimized and reference modes produce
	// different DispatchStats around bit-identical Results, so the field
	// is excluded from the JSON encoding and from report comparisons.
	Dispatch DispatchStats `json:"-"`
}

// Coverage returns the fault coverage in percent.
func (r Report) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Detected) / float64(r.Total)
}

// SignalStat is one line of the per-signal detection breakdown.
type SignalStat struct {
	Signal   Signal
	Detected int
	Total    int
}

// BySignal breaks detection down per signal class, ordered by signal so the
// breakdown renders deterministically.
func (r Report) BySignal() []SignalStat {
	idx := map[Signal]int{}
	var out []SignalStat
	for _, res := range r.Results {
		i, seen := idx[res.Site.Signal]
		if !seen {
			i = len(out)
			idx[res.Site.Signal] = i
			out = append(out, SignalStat{Signal: res.Site.Signal})
		}
		out[i].Total++
		if res.Detected {
			out[i].Detected++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signal < out[j].Signal })
	return out
}

// Undetected lists the surviving fault sites (diagnosis aid).
func (r Report) Undetected() []Site {
	var out []Site
	for _, res := range r.Results {
		if !res.Detected {
			out = append(out, res.Site)
		}
	}
	return out
}

func (r Report) String() string {
	s := fmt.Sprintf("%d/%d faults detected, FC %.2f%% (golden %08x)",
		r.Detected, r.Total, r.Coverage(), r.Golden)
	if r.Panics > 0 {
		s += fmt.Sprintf(", %d panicked (isolated)", r.Panics)
	}
	if r.Dispatch.Total() > 0 {
		s += "\n" + r.Dispatch.String()
	}
	return s
}

// Workers resolves a worker-count option: n when positive, else GOMAXPROCS,
// in both cases capped by the number of fault sites.
func Workers(n, sites int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > sites {
		n = sites
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SimOptions tunes Simulate beyond the defaults.
type SimOptions struct {
	// Journal, when non-nil, supplies already-settled verdicts (those
	// sites are not re-run) and records every newly settled one. The
	// caller owns Close.
	Journal *Journal
	// Telemetry, when non-nil, receives the campaign dispatcher's live
	// metrics: sites settled, per-verdict-class counts, journal append
	// latency, worker busy time. Nil is the disabled mode at zero cost.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives one site event per settled verdict
	// (journal-folded verdicts included, flagged FromJournal).
	Events *telemetry.EventLog
	// OnSettle, when non-nil, is invoked once per settled verdict with the
	// site's universe index — journal-folded verdicts included, flagged by
	// fromJournal. It runs on the settling worker goroutine, so it must be
	// safe for concurrent calls; it is the streaming hook a campaign-service
	// worker uses to publish shard verdicts as they land.
	OnSettle func(i int, res SiteResult, fromJournal bool)
	// OnGolden, when non-nil, is invoked once with the golden verdict,
	// after the golden run and before any site settles — so a streaming
	// consumer can attach the reference every verdict was compared against.
	OnGolden func(sig uint32, ok bool)
	// Claim, when non-nil, hands a worker goroutine the index of its next
	// site, or false to stop that worker. It must be safe for concurrent
	// calls and hand out each index in [0, len(sites)) at most once; an
	// index it never hands out keeps the zero SiteResult. A campaign-service
	// worker feeds it from its leased shards. Nil claims every index once,
	// in order, through a shared atomic cursor.
	Claim func() (int, bool)
}

// simMetrics is the resolved handle set of the campaign dispatcher; the
// zero value (telemetry detached) no-ops on every field.
type simMetrics struct {
	enabled     bool
	settled     *telemetry.Counter
	fromJournal *telemetry.Counter
	detected    *telemetry.Counter
	crashed     *telemetry.Counter
	panicked    *telemetry.Counter
	journalNs   *telemetry.Histogram
	workerBusy  *telemetry.Counter
	workers     *telemetry.Gauge
}

// newSimMetrics resolves the dispatcher's metric names once, at campaign
// start (reg may be nil: every handle stays nil and no-ops).
func newSimMetrics(reg *telemetry.Registry, workers int) simMetrics {
	m := simMetrics{
		enabled:     reg != nil,
		settled:     reg.Counter("campaign_sites_settled_total"),
		fromJournal: reg.Counter("campaign_sites_from_journal_total"),
		detected:    reg.Counter("campaign_verdict_detected_total"),
		crashed:     reg.Counter("campaign_verdict_crashed_total"),
		panicked:    reg.Counter("campaign_verdict_panicked_total"),
		journalNs:   reg.Histogram("campaign_journal_append_ns"),
		workerBusy:  reg.Counter("campaign_worker_busy_ns_total"),
		workers:     reg.Gauge("campaign_workers"),
	}
	m.workers.Set(int64(workers))
	return m
}

// settle records one settled verdict on the counters.
func (m *simMetrics) settle(res SiteResult, fromJournal bool) {
	m.settled.Inc()
	if fromJournal {
		m.fromJournal.Inc()
	}
	if res.Detected {
		m.detected.Inc()
	}
	if res.Crashed {
		m.crashed.Inc()
	}
	if res.Panicked {
		m.panicked.Inc()
	}
}

// SiteEvent renders the settled verdict res of site idx as an
// event-stream line; fromJournal marks a verdict that was not simulated
// for this stream but read back from a journal or the service's store.
func SiteEvent(idx int, res SiteResult, fromJournal bool) telemetry.Event {
	return telemetry.Event{
		Kind:        telemetry.EventSite,
		Index:       idx,
		Site:        res.Site.String(),
		Sig:         res.Signature,
		Detected:    res.Detected,
		Crashed:     res.Crashed,
		Panicked:    res.Panicked,
		FromJournal: fromJournal,
	}
}

// safeRun invokes run behind the per-run recover boundary. A panic is
// returned as a message/stack pair instead of unwinding into the worker
// pool.
func safeRun(run RunFunc, p Plane) (sig uint32, ok, panicked bool, msg, stack string) {
	defer func() {
		if v := recover(); v != nil {
			sig, ok, panicked = 0, false, true
			msg = fmt.Sprint(v)
			stack = string(debug.Stack())
		}
	}()
	sig, ok = run(p)
	return
}

// Simulate runs the full campaign: one golden run, then one run per fault
// site, comparing signatures. A fault is detected when the signature
// differs from the golden one or the run does not complete (a wedged or
// deadlocked core fails its test by construction: the watchdog expires).
//
// There is one worker goroutine per runner (size the slice with Workers):
// runner w serves every site that worker claims, so a runner may own
// heavyweight mutable state (one long-lived SoC arena per worker). The
// golden reference comes from runners[0](None) on the calling goroutine
// before the workers start. Each worker claims its next site from
// opt.Claim, or, without one, from a shared atomic cursor (no producer
// goroutine to serialise with). A worker writes only its claimed slots of
// Results, and the WaitGroup provides the final happens-before edge to
// the caller.
//
// Every run — golden included — executes behind a recover boundary: a
// panicking fault run settles the canonical Panicked verdict for its site
// and the pool moves on; a panicking golden run yields GoldenOK=false. The
// only errors are journal I/O or consistency failures, reported after the
// campaign state they interrupt is already in rep.
func Simulate(sites []Site, runners []RunFunc, opt SimOptions) (Report, error) {
	j := opt.Journal
	met := newSimMetrics(opt.Telemetry, len(runners))
	golden, goldenOK, gpan, gmsg, gstack := safeRun(runners[0], None)
	rep := Report{
		Golden:   golden,
		GoldenOK: goldenOK,
		Total:    len(sites),
		Results:  make([]SiteResult, len(sites)),
	}
	if j != nil {
		if err := j.BindGolden(golden, goldenOK); err != nil {
			return rep, err
		}
	}
	if opt.OnGolden != nil {
		opt.OnGolden(golden, goldenOK)
	}
	msgs := make([]string, len(sites))
	stacks := make([]string, len(sites))
	claim := opt.Claim
	if claim == nil {
		var cursor atomic.Int64
		claim = func() (int, bool) {
			idx := int(cursor.Add(1)) - 1
			return idx, idx < len(sites)
		}
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for _, run := range runners {
		wg.Add(1)
		go func(run RunFunc) {
			defer wg.Done()
			for {
				idx, more := claim()
				if !more {
					return
				}
				site := sites[idx]
				if j != nil {
					if res, msg, stack, settled := j.Settled(idx); settled {
						res.Site = site
						rep.Results[idx] = res
						msgs[idx], stacks[idx] = msg, stack
						met.settle(res, true)
						if opt.Events != nil {
							opt.Events.Emit(SiteEvent(idx, res, true))
						}
						if opt.OnSettle != nil {
							opt.OnSettle(idx, res, true)
						}
						continue
					}
				}
				var t0 time.Time
				if met.enabled {
					t0 = time.Now()
				}
				sig, ok, panicked, msg, stack := safeRun(run, PlaneFor(site))
				if met.enabled {
					met.workerBusy.Add(time.Since(t0).Nanoseconds())
				}
				if !ok {
					sig = 0 // canonical crash signature
				}
				res := SiteResult{
					Site:      site,
					Signature: sig,
					Crashed:   !ok,
					Panicked:  panicked,
					Detected:  !ok || sig != golden,
				}
				rep.Results[idx] = res
				msgs[idx], stacks[idx] = msg, stack
				if j != nil {
					var j0 time.Time
					if met.enabled {
						j0 = time.Now()
					}
					err := j.Record(idx, res, msg, stack)
					if met.enabled {
						met.journalNs.Observe(time.Since(j0).Nanoseconds())
					}
					if err != nil {
						setErr(err)
						return
					}
				}
				met.settle(res, false)
				if opt.Events != nil {
					opt.Events.Emit(SiteEvent(idx, res, false))
				}
				if opt.OnSettle != nil {
					opt.OnSettle(idx, res, false)
				}
			}
		}(run)
	}
	wg.Wait()
	if gpan {
		rep.Anomalies = append(rep.Anomalies, Anomaly{Index: -1, Msg: gmsg, Stack: gstack})
	}
	for i, res := range rep.Results {
		if res.Detected {
			rep.Detected++
		}
		if res.Panicked {
			rep.Panics++
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Index: i, Site: res.Site, Msg: msgs[i], Stack: stacks[i],
			})
		}
	}
	return rep, firstErr
}

// MinMax summarises coverage across scenario campaigns (the paper's
// Table II reports min–max fault coverage over SoC configurations).
type MinMax struct {
	Min, Max float64
	Reports  []Report
}

// NewMinMax aggregates reports.
func NewMinMax(reports []Report) MinMax {
	mm := MinMax{Min: 101, Max: -1, Reports: reports}
	for _, r := range reports {
		fc := r.Coverage()
		if fc < mm.Min {
			mm.Min = fc
		}
		if fc > mm.Max {
			mm.Max = fc
		}
	}
	if len(reports) == 0 {
		mm.Min, mm.Max = 0, 0
	}
	return mm
}

// SortSites orders a fault list deterministically (useful for stable
// sub-sampling in tests).
func SortSites(sites []Site) {
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		if a.Signal != b.Signal {
			return a.Signal < b.Signal
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		if a.Operand != b.Operand {
			return a.Operand < b.Operand
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Bit != b.Bit {
			return a.Bit < b.Bit
		}
		return a.Stuck < b.Stuck
	})
}

// Sample returns every k-th site of a sorted list (test-time reduction).
func Sample(sites []Site, k int) []Site {
	if k <= 1 {
		return sites
	}
	var out []Site
	for i := 0; i < len(sites); i += k {
		out = append(out, sites[i])
	}
	return out
}
