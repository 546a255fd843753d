package core

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/archint"
	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// Arena is a reusable fault-simulation worker: one long-lived SoC over its
// golden capture's sealed program image, serving thousands of fault runs
// as reset + plane-swap instead of soc.New + reassemble + reload. An arena
// holds only one worker's state: its SoC, the divergence monitor and its
// counters; everything its Run call's arenas share is in the capture. A
// run, Reset and Start included, allocates only when its SoC writes a
// memory page for the first time: the page, copied from the sealed
// image's baseline or zeroed, then stays the SoC's own, so once every
// page the sites write has been written, runs allocate nothing
// (TestArenaFirstTouchAllocation, TestArenaRunAllocationFree,
// TestResetStartAllocationFree, TestTCMClientAllocationFree).
//
// An Arena additionally supports early exit on observable divergence: the
// golden capture holds the golden run's observable trace (every data-side
// store the core under test performs, with value and cycle), and faulty
// runs are watched against that trace. Two watchdogs bound runs that can
// no longer reach a clean outcome long before the full cycle budget:
//
//   - hang: no observable store for more than 8x the golden run's largest
//     store-to-store gap (and at least one whole golden run) plus slack —
//     the wedged/deadlocked class, which under the plain budget burns 8x
//     the golden cycle count per fault;
//   - flood: a run that has observably diverged keeps storing past 8x the
//     golden store count (plus slack) — the runaway-loop class.
//
// The margins apply the same stallFactor the campaign cycle budget (see
// Record) embodies, at store-gap rather than whole-run granularity, so
// both modes misclassify only runs slowed by more than 8x — and the
// mode-equivalence tests pin that they agree on every site of the shipped
// universes. ArenaOptions.Reference restores the exact full-budget
// reference semantics. Runs that halt (cleanly or wedged) are never cut
// short, so their signatures are exact. An optimized Campaign.Run call's
// arenas also restore golden checkpoints; NewArena's arena has none.
type Arena struct {
	s *soc.SoC

	// gold is the golden capture the arena's runs are checked and
	// shortcut against, shared read-only with every arena of its Run call.
	gold *capture

	// Per-run monitor state (reset by Run).
	idx      int
	count    int
	diverged bool
	lastObs  int64

	// inRun is true while runOnce executes; finding it still set on the
	// next Run means the previous run panicked out through the campaign's
	// recover boundary.
	inRun bool

	// testPoison, when set (same-package tests only), runs after every
	// Reset inside runOnce — the hook the quarantine tests use to corrupt
	// post-Reset state.
	testPoison func(*soc.SoC)

	last RunResult

	// st holds the lifetime counters (Stats() fills in the derived
	// fields). path is the dispatch classification of the run in flight,
	// set by whichever serving path executes and folded into st.Dispatch
	// by Run. met carries the registry handles; its zero value (telemetry
	// detached) makes every metric update a nil-check no-op.
	st   ArenaStats
	path fault.DispatchPath
	met  arenaMetrics
}

// ArenaStats is one arena's lifetime counters as a plain snapshot (see
// Arena.Stats). Campaign code folds the per-worker snapshots into campaign
// totals (fault.Report.Dispatch) and the run-summary JSON.
type ArenaStats struct {
	// Runs counts the runs the arena stepped, health checks included;
	// NewArena's arena counts the golden capture as its run 1.
	Runs int64
	// EarlyExits counts runs the divergence watchdogs terminated before
	// the full budget.
	EarlyExits int64
	// HealthChecks counts golden-replay health probes.
	HealthChecks int64
	// Quarantines counts rebuilds after a failed health check.
	Quarantines int64
	// Dispatch classifies every site served through Run by the path that
	// served it (fallback runs included).
	Dispatch fault.DispatchStats
	// Checkpoints is the number of golden-run restore points held.
	Checkpoints int
	// GoldenEvents is the length of the captured observable trace.
	GoldenEvents int
	// GoldenOK reports a clean golden capture.
	GoldenOK bool
}

// Stats snapshots the arena's lifetime counters.
func (a *Arena) Stats() ArenaStats {
	st := a.st
	st.Checkpoints = len(a.gold.ckpts)
	st.GoldenEvents = len(a.gold.trace)
	st.GoldenOK = a.gold.ok
	return st
}

// capture is a Run call's golden capture: what every arena of the call
// shares. It holds the normalised replay configuration, the core under
// test, its job, the cycle budget and the engine mode, the sealed memory
// image the arenas run from, and what the fault-free capture run over that
// image recorded — the observable trace with the watchdog bounds derived
// from it, the activation probe, the checkpoints and the run's result.
// newCapture fills it, taking checkpoints when its caller passes an
// interval, and Campaign.arenas places them (capture.place); from then on
// it is read-only, so one capture serves every arena of the call on any
// goroutine, and a quarantined arena is rebuilt over it. Checkpoint
// snapshots are plain data, restorable into any SoC built from the image.
type capture struct {
	cfg    soc.Config
	id     int
	job    *CoreJob
	budget int64
	opt    ArenaOptions

	img   *soc.Image
	entry uint32

	// Golden observable trace and derived watchdog bounds. early is false
	// when the watchdogs are off: reference mode, a failed capture, or a
	// trace without observable events.
	trace     []obsEvent
	early     bool
	hangLimit int64
	floodCap  int

	// res is the capture run's full result and ok whether it completed
	// cleanly: the campaign's golden verdict and the health check's
	// reference.
	res RunResult
	ok  bool

	// Checkpointing state: nil/empty when the capture took no checkpoints
	// (reference mode, NewArena) or failed. ckpts is ascending by cycle:
	// one every interval, or where Campaign.Run's capture placed them
	// (capture.place).
	probe *fault.Probe
	ckpts []checkpoint
}

// arenaMetrics holds the registry handles an arena updates on its hot
// path. All handles are nil when telemetry is detached; enabled gates the
// time.Now() calls so the detached path pays only nil checks.
type arenaMetrics struct {
	enabled      bool
	dispatch     [fault.NumDispatchPaths]*telemetry.Counter
	runNs        [fault.NumDispatchPaths]*telemetry.Histogram
	earlyExits   *telemetry.Counter
	healthChecks *telemetry.Counter
	quarantines  *telemetry.Counter
	prefix       *telemetry.Counter
	skipped      *telemetry.Counter
}

// skippedCyclesMetric counts the quiet cycles the arenas' SoCs skipped
// (soc.SoC.Advance) in golden captures, fault runs and health checks.
const skippedCyclesMetric = "arena_skipped_cycles_total"

// newArenaMetrics resolves the arena metric names once. The arenas of one
// Run call share the registry, so they land on the same atomic handles and
// their updates aggregate campaign-wide.
func newArenaMetrics(reg *telemetry.Registry) arenaMetrics {
	if reg == nil {
		return arenaMetrics{}
	}
	m := arenaMetrics{enabled: true}
	for p := fault.DispatchPath(0); p < fault.NumDispatchPaths; p++ {
		m.dispatch[p] = reg.Counter("arena_dispatch_" + p.String() + "_total")
		m.runNs[p] = reg.Histogram("arena_run_ns_" + p.String())
	}
	m.earlyExits = reg.Counter("arena_early_exits_total")
	m.healthChecks = reg.Counter("arena_health_checks_total")
	m.quarantines = reg.Counter("arena_quarantines_total")
	m.prefix = reg.Counter("arena_prefix_cycles_total")
	m.skipped = reg.Counter(skippedCyclesMetric)
	return m
}

// checkpoint is one golden-run restore point: the full SoC state at cycle,
// plus the arena monitor and Transition edge history a run restored there
// must resume with.
type checkpoint struct {
	cycle   int64
	state   *soc.State
	obsIdx  int
	lastObs int64
	hist    fault.MuxHistory
}

// obsEvent is one observable event: a completed data-side store of the core
// under test. The cycle stamp calibrates the hang watchdog; divergence
// compares only address, value and size (a faulty run that is merely slower
// is not observably divergent).
type obsEvent struct {
	addr  uint32
	val   uint64
	size  int
	cycle int64
}

// ArenaOptions tunes an Arena.
type ArenaOptions struct {
	// Reference selects the reference mode: no divergence watchdogs, so
	// every run uses the full cycle budget, and no checkpoint restore or
	// golden-verdict shortcut — the semantics every arena optimization is
	// differentially pinned against (see CampaignOptions.Reference).
	Reference bool
	// Plan, when enabled, drives a deterministic interrupt-event plan into
	// the core under test on every run (golden capture included) — the
	// fault x planned-interrupt cross of the multifault scenario. Only
	// NewArena takes a plan, and its capture takes no checkpoints: the
	// injector's delivery cursor rewinds with Reset but is not part of
	// soc.State, so a run restored from a checkpoint would resume with a
	// stale cursor.
	Plan archint.Plan
	// Telemetry, when non-nil, receives the arena's dispatch-path
	// counters and per-path run-latency histograms. Nil (the default)
	// disables metrics at zero cost — the nil-receiver contract of
	// internal/telemetry.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives a quarantine event whenever the
	// arena is rebuilt after a failed health check.
	Events *telemetry.EventLog
}

// NewArena assembles job's program into a fresh SoC and runs the golden
// capture on it. The arena it returns is that SoC, left where the capture
// ended: the capture is its run 1 and Last() is the golden result. cfg
// should carry the replayed background traffic; only core id is activated
// regardless of cfg's Active flags. The capture takes no checkpoints: only
// a Campaign.Run call knows the sites to place them for, so every run of
// this arena replays from cycle 0, cut early unless opt.Reference.
func NewArena(cfg soc.Config, id int, job *CoreJob, budget int64, opt ArenaOptions) (*Arena, error) {
	prog, err := buildProgram(job)
	if err != nil {
		return nil, fmt.Errorf("arena core%d: %w", id, err)
	}
	g, s, err := newCapture(cfg, id, job, prog, budget, opt, 0)
	if err != nil {
		return nil, err
	}
	a := g.arena(s)
	a.st.Runs, a.last = 1, g.res
	return a, nil
}

// newCapture loads job's assembled program prog and the routine data into
// a fresh SoC, seals the image and runs the golden capture on that SoC,
// which it returns with the capture. The capture run records the
// observable trace and calibrates the watchdog bounds. With an interval
// iv > 0, it also carries the activation probe and snapshots the SoC every
// iv cycles. When the capture fails (the campaign will reject the golden
// anyway) early exit stays disabled, runs simply use the full budget, the
// health check has no reference to replay against, and the checkpoints
// are dropped — restored runs would have no golden reference to be
// equivalent to.
func newCapture(cfg soc.Config, id int, job *CoreJob, prog *asm.Program, budget int64, opt ArenaOptions, iv int64) (*capture, *soc.SoC, error) {
	for k := 0; k < soc.NumCores; k++ {
		cfg.Cores[k].Active = k == id
		cfg.Cores[k].Plane = nil // planes are swapped per run
	}
	s := soc.New(cfg)
	if err := s.Load(prog); err != nil {
		return nil, nil, fmt.Errorf("arena core%d: %w", id, err)
	}
	for _, r := range job.routines() {
		loadRoutineData(s, r)
	}
	s.SealBaseline()
	if opt.Plan.Enabled() {
		s.SetInjector(id, archint.NewInjector(opt.Plan))
	}
	g := &capture{cfg: cfg, id: id, job: job, budget: budget, opt: opt, img: s.Image(), entry: prog.Base}
	s.Cores[id].Core.SetStoreObserver(func(addr uint32, val uint64, size int) {
		g.trace = append(g.trace, obsEvent{addr: addr, val: val, size: size, cycle: s.Cycle()})
	})
	var at []int64
	if iv > 0 {
		g.probe = fault.NewProbe(s.Cycle)
		for c := iv; c <= budget; c += iv {
			at = append(at, c)
		}
	}
	g.ckpts = g.goldenPass(s, g.probe, budget, at)
	opt.Telemetry.Counter("arena_golden_captures_total").Inc()
	opt.Telemetry.Counter(skippedCyclesMetric).Add(s.SkippedCycles())
	g.res = coreResult(s.Cores[id], s.Done())
	if g.ok = g.res.OK; !g.ok {
		g.probe, g.ckpts = nil, nil
	} else if !opt.Reference {
		g.calibrate()
	}
	return g, s, nil
}

// goldenPass runs the fault-free program on s from cycle 0 until it drains
// or reaches cycle stop, under probe unless it is nil (a probe is an
// identity plane, so the run is still the golden run). It returns a
// checkpoint at each cycle of the ascending list at that the run reaches
// before it drains: the SoC state, the trace position and last store
// cycle the divergence monitor resumes with, and the probe's edge
// history, which seeds the Transition runs restored there. It installs no
// store observer: the trace position comes from the capture's trace, which
// holds every store up to the checkpoint, on the capture pass too.
func (g *capture) goldenPass(s *soc.SoC, probe *fault.Probe, stop int64, at []int64) (ckpts []checkpoint) {
	plane := fault.Plane(fault.None)
	if probe != nil {
		plane = probe
	}
	s.Reset()
	s.SetPlane(g.id, plane)
	s.Start(g.id, g.entry)
	for s.Cycle() < stop && !s.Done() {
		limit := stop
		if len(at) > 0 {
			limit = min(limit, at[0])
		}
		s.Advance(limit)
		if len(at) > 0 && s.Cycle() == at[0] {
			at = at[1:]
			if !s.Done() {
				// A store is stamped with the cycle it completes in.
				c := s.Cycle()
				ck := checkpoint{cycle: c, state: s.Snapshot(), hist: probe.History()}
				ck.obsIdx = sort.Search(len(g.trace), func(i int) bool { return g.trace[i].cycle > c })
				if ck.obsIdx > 0 {
					ck.lastObs = g.trace[ck.obsIdx-1].cycle
				}
				ckpts = append(ckpts, ck)
			}
		}
	}
	return ckpts
}

// arena builds a worker arena over the capture and SoC s, which is either
// the SoC the capture ran on or a fresh one from the capture's image.
func (g *capture) arena(s *soc.SoC) *Arena {
	a := &Arena{s: s, gold: g, met: newArenaMetrics(g.opt.Telemetry)}
	s.Cores[g.id].Core.SetStoreObserver(a.observe)
	if g.opt.Plan.Enabled() {
		// The attachment survives Reset; the cursor rewinds with the core.
		s.SetInjector(g.id, archint.NewInjector(g.opt.Plan))
	}
	return a
}

// calibrate derives the watchdog bounds from the captured golden trace.
func (g *capture) calibrate() {
	g.early = true
	if len(g.trace) == 0 {
		// No observable events at all: nothing to watch, keep the plain
		// budget (the hang limit below would equal it anyway).
		g.early = false
		return
	}
	var maxGap, prev int64
	for _, ev := range g.trace {
		if d := ev.cycle - prev; d > maxGap {
			maxGap = d
		}
		prev = ev.cycle
	}
	if d := g.res.Cycles - prev; d > maxGap {
		maxGap = d
	}
	g.hangLimit = maxGap * stallFactor
	if g.hangLimit < g.res.Cycles {
		// Never call a run hung for a silence shorter than one entire
		// golden run: routines with dense stores would otherwise get an
		// aggressive limit, and a hung run still stops at ~1/8 of the
		// full campaign budget.
		g.hangLimit = g.res.Cycles
	}
	g.hangLimit += earlySlack
	g.floodCap = len(g.trace)*stallFactor + 1_000
}

// observe receives every completed store of the core under test.
func (a *Arena) observe(addr uint32, val uint64, size int) {
	a.lastObs = a.s.Cycle()
	if !a.diverged {
		if a.idx >= len(a.gold.trace) {
			a.diverged = true
		} else if g := a.gold.trace[a.idx]; g.addr != addr || g.val != val || g.size != size {
			a.diverged = true
		}
		a.idx++
	}
	a.count++
}

// Run executes one fault run under plane p (fault.None for golden) and
// reports the final signature plus whether the run completed cleanly. It is
// the fault.RunFunc of this arena; each arena serves one worker goroutine.
//
// Run is also the arena's failure-domain boundary. A run that ends
// anomalously — panicked out through the campaign's recover boundary, or
// cut by a watchdog (early exit or budget exhaustion) — may have left state
// behind that Reset cannot rewind, so before the verdict stands the arena
// replays the golden run and requires the capture's RunResult exactly. A
// failed health check quarantines the arena: it is rebuilt over a fresh
// SoC from its capture's image and the suspect site is re-run on a fresh
// SoC (rebuild-per-fault semantics), so one corrupt Reset can never
// silently skew subsequent verdicts.
func (a *Arena) Run(p fault.Plane) (sig uint32, ok bool) {
	// Classify the site by the path that ends up serving it (the serving
	// paths overwrite a.path) and time the whole service, health checks
	// and fallbacks included — the latency the campaign actually paid.
	// The fault-free golden verification run is not a site: it stays out
	// of the dispatch counts so Dispatch.Total() matches the sites served.
	a.path = fault.DispatchFullReplay
	var t0 time.Time
	if a.met.enabled {
		t0 = time.Now()
	}
	sig, ok = a.serve(p)
	if p != fault.None {
		a.st.Dispatch[a.path]++
		if a.met.enabled {
			a.met.dispatch[a.path].Inc()
			a.met.runNs[a.path].Observe(time.Since(t0).Nanoseconds())
		}
	}
	return sig, ok
}

// serve is the Run body: failure-domain validation around the dispatch.
func (a *Arena) serve(p fault.Plane) (sig uint32, ok bool) {
	if a.inRun {
		// The previous run never returned: it panicked and the campaign's
		// recover boundary caught it. Validate the arena before serving
		// another site.
		a.inRun = false
		if !a.healthy() {
			a.quarantine()
		}
	}
	a.inRun = true
	sig, ok, cut := a.dispatch(p)
	a.inRun = false
	if cut && !a.healthy() {
		a.quarantine()
		return a.fallbackRun(p)
	}
	return sig, ok
}

// dispatch picks the cheapest sound way to serve plane p. A single
// stuck-at or transition fault is transparent until its site's first
// activation, which the capture's probe recorded: sites that never
// activate are served the golden verdict outright, and activating sites
// start from the last golden checkpoint before their activation cycle.
// Everything else — activation before the first checkpoint, composite
// planes, the fault-free plane, unknown plane types — takes the full
// replay from cycle 0. Each probed run adds the golden cycles it replays
// before its activation to arena_prefix_cycles_total.
func (a *Arena) dispatch(p fault.Plane) (sig uint32, ok, cut bool) {
	var site fault.Site
	switch f := p.(type) {
	case *fault.Single:
		site = f.S
	case *fault.Transition:
		site = f.S
	default:
		return a.runOnce(p)
	}
	g := a.gold
	if g.probe == nil || !g.ok {
		return a.runOnce(p)
	}
	act := g.probe.FirstActivation(site)
	if act < 0 {
		// The fault never changes a hook's output: its run is
		// bit-identical to the golden run, so serve the golden verdict.
		a.path = fault.DispatchGolden
		a.last = g.res
		return g.res.Signature, g.res.OK, false
	}
	if ck := a.checkpointBefore(act); ck != nil {
		a.met.prefix.Add(act - ck.cycle)
		return a.runFrom(ck, p)
	}
	a.met.prefix.Add(act)
	return a.runOnce(p)
}

// checkpointBefore returns the latest golden checkpoint strictly before
// cycle act, or nil when none exists (activation before the first
// checkpoint, or checkpointing produced no snapshots).
func (a *Arena) checkpointBefore(act int64) *checkpoint {
	ckpts := a.gold.ckpts
	for i := len(ckpts) - 1; i >= 0; i-- {
		if ckpts[i].cycle < act {
			return &ckpts[i]
		}
	}
	return nil
}

// runFrom executes a fault run starting from a golden checkpoint instead
// of cycle 0: SoC state restored, a Transition plane's edge history seeded
// from the checkpoint, and the divergence monitor resumed at the
// checkpoint's trace position. Sound because the faulty run is
// bit-identical to the golden run before the site's first activation,
// which the caller guarantees lies after the checkpoint.
func (a *Arena) runFrom(ck *checkpoint, p fault.Plane) (sig uint32, ok, cut bool) {
	s := a.s
	s.Restore(ck.state)
	if a.testPoison != nil {
		a.testPoison(s)
	}
	if t, isTransition := p.(*fault.Transition); isTransition {
		t.SeedHistory(ck.hist.For(t.S))
	}
	s.SetPlane(a.gold.id, p)
	a.idx, a.count, a.diverged, a.lastObs = ck.obsIdx, ck.obsIdx, false, ck.lastObs
	a.st.Runs++
	a.path = fault.DispatchCheckpoint
	return a.stepRun()
}

// runOnce executes one reset + plane-swap run from cycle 0. cut reports an
// anomalous ending: a watchdog abort or budget exhaustion before the SoC
// drained (wedged cores halt and drain normally, so they are not cut).
func (a *Arena) runOnce(p fault.Plane) (sig uint32, ok, cut bool) {
	s, g := a.s, a.gold
	s.Reset()
	if a.testPoison != nil {
		a.testPoison(s)
	}
	// The plane may have served an earlier run (fallback and re-run
	// paths); stale Transition edge history — directly or inside a
	// Composite — must not leak into this run.
	fault.ResetPlaneState(p)
	s.SetPlane(g.id, p)
	s.Start(g.id, g.entry)
	a.idx, a.count, a.diverged, a.lastObs = 0, 0, false, 0
	a.st.Runs++
	return a.stepRun()
}

// stepRun advances the prepared SoC (reset or checkpoint-restored, plane
// set, monitor state primed) to completion and extracts the verdict. The
// cycle budget is absolute: a checkpoint-restored run is charged for the
// skipped prefix, so its verdict matches the full replay's exactly. Each
// Advance stops at the budget and at the cycle the hang watchdog would
// fire at if no store completed first (stores end quiet windows), so the
// watchdogs see every cycle they can fire at. The quiet cycles Advance
// skips are added to arena_skipped_cycles_total.
func (a *Arena) stepRun() (sig uint32, ok, cut bool) {
	s, g := a.s, a.gold
	aborted := false
	skipped := s.SkippedCycles()
	cycles := s.Cycle()
	for cycles < g.budget {
		if s.Done() {
			break
		}
		limit := g.budget
		if g.early {
			limit = min(limit, a.lastObs+g.hangLimit+1)
		}
		s.Advance(limit)
		cycles = s.Cycle()
		if g.early {
			if cycles-a.lastObs > g.hangLimit || (a.diverged && a.count > g.floodCap) {
				aborted = true
				a.st.EarlyExits++
				a.met.earlyExits.Inc()
				break
			}
		}
	}

	a.met.skipped.Add(s.SkippedCycles() - skipped)
	done := s.Done() && !aborted
	a.last = coreResult(s.Cores[g.id], done)
	return a.last.Signature, a.last.OK, !done
}

// healthy replays the golden run and compares the full RunResult against
// the capture's — the same equivalence the
// TestArenaResetMatchesFreshSoC family pins for normal runs, applied as an
// online probe. Without a golden reference (capture failed) the check is
// vacuous: the campaign rejects such goldens wholesale.
func (a *Arena) healthy() (healthy bool) {
	if !a.gold.ok {
		return true
	}
	a.st.HealthChecks++
	a.met.healthChecks.Inc()
	saved := a.last
	defer func() {
		a.last = saved
		if recover() != nil {
			healthy = false
		}
	}()
	_, ok, cut := a.runOnce(fault.None)
	return ok && !cut && a.last == a.gold.res
}

// quarantine retires the poisoned SoC and rebuilds the arena in place over
// a fresh SoC from its capture's image, keeping the capture and the
// lifetime counters, and reports it to the telemetry sinks (counter and
// event stream).
func (a *Arena) quarantine() {
	g, st := a.gold, a.st
	st.Quarantines++
	*a = *g.arena(soc.NewFromImage(g.cfg, g.img))
	a.st = st
	// The new SoC notifies the constructor's arena; re-point it at this
	// arena so the monitor state it updates is the state Run consults.
	a.s.Cores[g.id].Core.SetStoreObserver(a.observe)
	a.met.quarantines.Inc()
	g.opt.Events.Emit(telemetry.Event{Kind: telemetry.EventQuarantine, Core: g.id})
}

// fallbackRun serves one site with rebuild-per-fault semantics: a
// fresh SoC, freshly assembled program and the full cycle budget. Used for
// the site whose run poisoned the arena. Planes that keep state are reset
// first: the plane object may
// already have executed on the poisoned arena, and its edge history must
// not leak into the fresh-SoC verdict. A failed rebuild panics (into the
// campaign's recover boundary, which records a Panicked verdict and counts
// an anomaly) rather than masquerading as a crashed fault run — a build
// failure is an engine fault, not a property of the site.
func (a *Arena) fallbackRun(p fault.Plane) (sig uint32, ok bool) {
	a.path = fault.DispatchFallback
	fault.ResetPlaneState(p)
	g := a.gold
	c := g.cfg
	c.Cores[g.id].Plane = p
	var jobs [soc.NumCores]*CoreJob
	jobs[g.id] = g.job
	var setup func(*soc.SoC)
	if plan := g.opt.Plan; plan.Enabled() {
		setup = func(s *soc.SoC) { s.SetInjector(g.id, archint.NewInjector(plan)) }
	}
	res, _, err := RunJobsSetup(c, jobs, g.budget, setup)
	if err != nil {
		panic(fmt.Sprintf("arena core%d: fallback run failed: %v", g.id, err))
	}
	if res[g.id] == nil {
		panic(fmt.Sprintf("arena core%d: fallback run produced no result", g.id))
	}
	return res[g.id].Signature, res[g.id].OK
}

// SoC exposes the underlying system (cache statistics, bus state) for
// inspection after a run.
func (a *Arena) SoC() *soc.SoC { return a.s }

// Last returns the full result of the most recent Run.
func (a *Arena) Last() RunResult { return a.last }

// CampaignOptions tunes Campaign.Run and RunCampaignOpts beyond the engine
// mode.
type CampaignOptions struct {
	// Workers is the worker-pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Reference selects the engine's reference mode: full cycle budget per
	// run (no early exit), no checkpoints, no golden-verdict shortcut. The
	// optimized mode, the default, always takes the automatic golden
	// checkpoints (checkpointInterval) and places them where the call's
	// sites activate (capture.place). Reports are bit-identical across the
	// two modes — that equivalence is what the conformance oracle checks
	// over full universes — so the mode does not enter the campaign
	// fingerprint and journals transfer between them. (The reference mode
	// inherited its own pin from the retired rebuild-per-fault legacy
	// engine; see TestArenaNoEarlyExitMatchesLegacy.)
	Reference bool
	// Journal, when non-empty, is the path of the verdict journal.
	// Combined with Resume, settled sites are folded in from the file;
	// otherwise the file is created fresh (truncating any previous one).
	Journal string
	// Resume loads Journal (which must carry this campaign's fingerprint)
	// and skips its settled sites. Resume without a Journal is an error.
	Resume bool
	// Telemetry, when non-nil, receives the campaign metrics: arena
	// dispatch-path counters and latency histograms, settle rates and
	// verdict-class counts, journal-append latency. All workers share the
	// registry's atomics. Nil disables metrics at zero cost (a progress
	// interval alone spins up an internal registry for its rate math).
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives the campaign event stream:
	// start/progress/site/quarantine/finish JSONL records.
	Events *telemetry.EventLog
	// OnSettle, when non-nil, is invoked once per settled verdict with the
	// site's index in the sites slice (passed through to
	// fault.SimOptions.OnSettle). It runs on worker goroutines and must be
	// safe for concurrent calls.
	OnSettle func(i int, res fault.SiteResult, fromJournal bool)
	// OnGolden, when non-nil, receives the golden verdict before any site
	// settles (passed through to fault.SimOptions.OnGolden).
	OnGolden func(sig uint32, ok bool)
	// Claim, when non-nil, hands each worker its next index into the sites
	// slice (passed through to fault.SimOptions.Claim); nil claims every
	// site once, in order.
	Claim func() (int, bool)
	// Progress > 0 prints a progress line (settled/total, rate, ETA,
	// shortcut rate) to ProgressWriter every interval, and emits progress
	// events when Events is set.
	Progress time.Duration
	// ProgressWriter receives the progress lines; nil means os.Stderr.
	ProgressWriter io.Writer
}

// checkpointInterval is the golden checkpoint interval of an optimized
// Campaign.Run call. It targets a restore point roughly every 1/8 of a
// golden run (the budget is stallFactor = 8 times the golden run plus
// slack, so budget/64 approximates goldenCycles/8), clamped below so
// snapshot traffic stays negligible next to stepping on long runs and
// above so short campaigns still get useful prefix-skip granularity. The
// interval also sets how many checkpoints the capture places
// (capture.place).
func checkpointInterval(budget int64) int64 {
	return min(max(budget/64, 256), 16_384)
}

// RunCampaignOpts fault-simulates job on core id for every site, in the
// replay environment cfg with the given per-run cycle budget: one
// Campaign.Run on a campaign built by hand, which assembles job's program
// and captures the golden run, as every Run call does. Record supplies the
// environment and budget; a caller holding the recorded Campaign calls its
// Run instead, so only cmd/bench and tests call this.
func RunCampaignOpts(cfg soc.Config, id int, job *CoreJob, sites []fault.Site, budget int64, opt CampaignOptions) (fault.Report, error) {
	c := &Campaign{Cfg: cfg, Core: id, Job: job, Sites: sites, Budget: budget}
	return c.Run(sites, opt)
}

// campaignProgress starts the periodic progress line (nil when disabled).
// The tick reads only registry atomics — the worker arenas own all other
// state — so it is safe alongside the running campaign.
func campaignProgress(reg *telemetry.Registry, opt CampaignOptions, total int, start time.Time) *telemetry.Ticker {
	if opt.Progress <= 0 {
		return nil
	}
	w := opt.ProgressWriter
	if w == nil {
		w = os.Stderr
	}
	settled := reg.Counter("campaign_sites_settled_total")
	detected := reg.Counter("campaign_verdict_detected_total")
	ckpt := reg.Counter("arena_dispatch_" + fault.DispatchCheckpoint.String() + "_total")
	golden := reg.Counter("arena_dispatch_" + fault.DispatchGolden.String() + "_total")
	return telemetry.StartTicker(opt.Progress, func() {
		s := settled.Value()
		elapsed := time.Since(start)
		rate := float64(s) / elapsed.Seconds()
		var eta time.Duration
		if rate > 0 && s < int64(total) {
			eta = time.Duration(float64(int64(total)-s) / rate * float64(time.Second))
		}
		hit := 0.0
		if s > 0 {
			hit = 100 * float64(ckpt.Value()+golden.Value()) / float64(s)
		}
		fmt.Fprintf(w, "progress: %d/%d sites, %.1f sites/s, ETA %s, %.0f%% checkpoint-hit\n",
			s, total, rate, eta.Round(time.Second), hit)
		if opt.Events != nil {
			opt.Events.Emit(telemetry.Event{
				Kind: telemetry.EventProgress, Settled: s,
				DetectedTotal: detected.Value(), Rate: rate,
				ETANs: eta.Nanoseconds(), ElapsedNs: elapsed.Nanoseconds(),
			})
		}
	})
}
