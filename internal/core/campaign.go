package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// Campaign is one recorded fault campaign: the replay environment, the
// job under test, the ordered fault universe, the per-run cycle budget and
// the content address. Record builds it; Run simulates it, or any
// sub-universe of it, and keeps the golden capture and the worker arenas
// for the next call. A Campaign must not be copied after its first Run.
type Campaign struct {
	// Cfg is the replay SoC configuration: the golden configuration with
	// the other cores' recorded bus traffic feeding dedicated replay
	// masters.
	Cfg soc.Config
	// Core is the core under test.
	Core int
	// Job is the core under test's routine + strategy job.
	Job *CoreJob
	// Sites is the ordered fault universe.
	Sites []fault.Site
	// Budget is the per-run cycle budget: stallFactor x the golden run's
	// cycles plus earlySlack.
	Budget int64
	// Header is the campaign's content address (CampaignFingerprint over
	// program, universe and environment).
	Header fault.JournalHeader

	// mu guards prog and eng.
	mu sync.Mutex
	// prog is Job's assembled program, nil until first needed.
	prog *asm.Program
	// eng is the engine Run keeps between calls, nil before the first.
	eng *engine
}

// engine is the simulation state a Campaign keeps between Run calls: the
// golden capture of one engine mode and the idle worker arenas built on
// it. cfg is the capture arena's normalised configuration, which clones
// reuse; mode holds the early-exit setting and checkpoint interval.
type engine struct {
	cfg  soc.Config
	mode ArenaOptions
	gold *capture
	idle []*Arena
}

// serves reports whether the engine's capture fits a call in engine mode
// opt: the same early-exit setting and checkpoint interval.
func (e *engine) serves(opt ArenaOptions) bool {
	return e.mode.NoEarlyExit == opt.NoEarlyExit && e.mode.CheckpointInterval == opt.CheckpointInterval
}

// stallFactor is the slowdown relative to the golden run a faulty run may
// suffer before the campaign calls it hung: the per-run cycle budget is
// stallFactor x golden cycles + earlySlack, and the arena's early-exit
// watchdogs apply the same factor per store gap (see Arena.calibrate).
const stallFactor = 8

// earlySlack is the constant term of the campaign budget and of the hang
// watchdog's limit.
const earlySlack = 20_000

// maxGoldenCycles bounds the recorded golden full-system run.
const maxGoldenCycles = 10_000_000

// Record builds a campaign: one golden full-system run of jobs on cfg
// (every core with a job active) records the bus traffic around core
// underTest, a golden run that does not complete cleanly is rejected, and
// the replay environment, budget and fingerprint are derived from it.
// Faults are then simulated with only underTest live and the other cores'
// recorded traffic replayed, so verdicts are compared against the golden
// of that same replayed environment. Record is deterministic: equal inputs
// yield equal campaigns in any process.
func Record(cfg soc.Config, jobs [soc.NumCores]*CoreJob, underTest int, sites []fault.Site) (*Campaign, error) {
	if underTest < 0 || underTest >= soc.NumCores || jobs[underTest] == nil {
		return nil, fmt.Errorf("no job on core under test %d", underTest)
	}
	var rec *bus.Recorder
	results, _, err := RunJobsSetup(cfg, jobs, maxGoldenCycles, func(s *soc.SoC) {
		rec = s.AttachRecorder(underTest)
	})
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	golden := results[underTest]
	if !golden.OK {
		return nil, fmt.Errorf("golden run failed on core %d", underTest)
	}
	c := &Campaign{Cfg: cfg, Core: underTest, Job: jobs[underTest], Sites: sites,
		Budget: golden.Cycles*stallFactor + earlySlack}
	c.Cfg.Replay = rec.EventsByMaster()
	prog, err := c.program()
	if err != nil {
		return nil, fmt.Errorf("fingerprint: %w", err)
	}
	c.Header = CampaignFingerprint(prog, c.Cfg, c.Core, c.Job, c.Sites, c.Budget)
	return c, nil
}

// program returns Job's assembled program, assembling it on first use.
func (c *Campaign) program() (*asm.Program, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prog == nil {
		prog, err := buildProgram(c.Job)
		if err != nil {
			return nil, err
		}
		c.prog = prog
	}
	return c.prog, nil
}

// Run fault-simulates sites — the campaign's universe or any sub-universe
// of it, such as one service shard — in the campaign's replay environment
// with its budget. Each worker drives one reusable Arena; opt.Reference
// selects the full-budget reference mode, and both modes produce
// identical reports. With a journal, verdicts stream to an append-only
// file as they settle (its fingerprint covers sites), and a resumed run
// skips the sites the journal already settles — producing a report
// bit-identical to the uninterrupted run; asking to resume without a
// journal is an error rather than a silent fresh start.
//
// The first call runs the golden capture and builds the worker arenas;
// later calls in the same engine mode (opt.Reference and the resolved
// checkpoint interval) reuse both, cloning more arenas when a call wants
// more workers. The capture places its checkpoints where the universe's
// sites activate, less those a resumed journal settles
// (Arena.placeCheckpoints). A call in another mode builds and drops its
// own. The report's golden
// verdict is the capture's, and its Dispatch counts only this call's
// sites. Concurrent calls are safe.
func (c *Campaign) Run(sites []fault.Site, opt CampaignOptions) (fault.Report, error) {
	if opt.Resume && opt.Journal == "" {
		return fault.Report{}, errors.New("resume without a journal: nothing to resume from")
	}
	reg := opt.Telemetry
	if reg == nil && opt.Progress > 0 {
		// The progress line computes rates from registry counters; give it
		// a private registry when the caller did not attach one.
		reg = telemetry.NewRegistry()
	}
	prog, err := c.program()
	if err != nil {
		return fault.Report{}, err
	}
	simOpt := fault.SimOptions{Telemetry: reg, Events: opt.Events, OnSettle: opt.OnSettle, OnGolden: opt.OnGolden, Claim: opt.Claim}
	// place is the sites whose activations place a new capture's
	// checkpoints: the universe's, less those a resumed journal settles.
	place := c.Sites
	if opt.Journal != "" {
		header := CampaignFingerprint(prog, c.Cfg, c.Core, c.Job, sites, c.Budget)
		var j *fault.Journal
		if opt.Resume {
			j, err = fault.ResumeJournal(opt.Journal, header)
		} else {
			j, err = fault.CreateJournal(opt.Journal, header)
		}
		if err != nil {
			return fault.Report{}, err
		}
		defer j.Close()
		simOpt.Journal = j
		if opt.Resume {
			settled := make(map[fault.Site]bool)
			for i, s := range sites {
				if _, _, _, ok := j.Settled(i); ok {
					settled[s] = true
				}
			}
			place = slices.DeleteFunc(slices.Clone(c.Sites), func(s fault.Site) bool { return settled[s] })
		}
	}
	mode := ArenaOptions{CheckpointInterval: resolveCheckpointInterval(opt.CheckpointInterval, c.Budget)}
	if opt.Reference {
		mode = ArenaOptions{NoEarlyExit: true}
	}
	mode.Telemetry = reg
	mode.Events = opt.Events
	n := fault.Workers(opt.Workers, len(sites))
	e, arenas, err := c.checkout(prog, mode, place, n)
	if err != nil {
		return fault.Report{}, err
	}
	defer c.checkin(e, arenas)
	runners := make([]fault.RunFunc, n)
	before := make([]fault.DispatchStats, n)
	for w, a := range arenas {
		runners[w], before[w] = a.Run, a.st.Dispatch
	}
	// Simulate asks runner 0 for the fault-free plane only for the golden
	// verdict, which the capture already holds: answer it without a replay.
	a0 := arenas[0]
	runners[0] = func(p fault.Plane) (uint32, bool) {
		if p == fault.None {
			return e.gold.res.Signature, e.gold.ok
		}
		return a0.Run(p)
	}
	if opt.Events != nil {
		opt.Events.Emit(telemetry.Event{
			Kind: telemetry.EventStart, Sites: len(sites), Workers: n,
		})
	}
	start := time.Now()
	progress := campaignProgress(reg, opt, len(sites), start)
	rep, err := fault.Simulate(sites, runners, simOpt)
	progress.Stop()
	if err != nil {
		return rep, err
	}
	for w, a := range arenas {
		for p := range rep.Dispatch {
			rep.Dispatch[p] += a.st.Dispatch[p] - before[w][p]
		}
	}
	if opt.Events != nil {
		opt.Events.Emit(telemetry.Event{
			Kind: telemetry.EventFinish, Sites: len(sites),
			Settled:       int64(len(rep.Results)),
			DetectedTotal: int64(rep.Detected),
			ElapsedNs:     time.Since(start).Nanoseconds(),
		})
	}
	return rep, nil
}

// checkout hands a Run call n worker arenas in engine mode opt, whose
// telemetry sinks they adopt: those reserve finds or builds, its capture
// placing its checkpoints where sites activate, plus clones of that
// capture, built concurrently.
func (c *Campaign) checkout(prog *asm.Program, opt ArenaOptions, sites []fault.Site, n int) (*engine, []*Arena, error) {
	e, arenas, err := c.reserve(prog, opt, sites, n)
	if err != nil {
		return nil, nil, err
	}
	met := newArenaMetrics(opt.Telemetry)
	for _, a := range arenas {
		a.opt, a.met = opt, met
	}
	held := len(arenas)
	arenas = append(arenas, make([]*Arena, n-held)...)
	var wg sync.WaitGroup
	for w := held; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arenas[w] = newArenaClone(e.cfg, c.Core, c.Job, c.Budget, opt, e.gold)
		}(w)
	}
	wg.Wait()
	return e, arenas, nil
}

// reserve takes up to n idle arenas of the campaign's engine when it
// serves mode opt. Otherwise it builds an engine and its capture arena,
// whose checkpoints it places where sites activate, for n arenas: the
// campaign's engine, on the first call, or a private one that checkin
// drops. Building holds the lock, so concurrent first calls capture once.
func (c *Campaign) reserve(prog *asm.Program, opt ArenaOptions, sites []fault.Site, n int) (*engine, []*Arena, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.eng; e != nil && e.serves(opt) {
		k := max(len(e.idle)-n, 0)
		arenas := append([]*Arena(nil), e.idle[k:]...)
		e.idle = e.idle[:k]
		return e, arenas, nil
	}
	a, err := newArena(c.Cfg, c.Core, c.Job, prog, c.Budget, opt)
	if err != nil {
		return nil, nil, err
	}
	a.placeCheckpoints(sites, n)
	mode := ArenaOptions{NoEarlyExit: a.opt.NoEarlyExit, CheckpointInterval: a.opt.CheckpointInterval}
	e := &engine{cfg: a.cfg, mode: mode, gold: a.gold}
	if c.eng == nil {
		c.eng = e
	}
	return e, []*Arena{a}, nil
}

// checkin returns a Run call's arenas to the campaign's idle set, detached
// from the call's telemetry sinks, except dead ones and those of a
// private engine.
func (c *Campaign) checkin(e *engine, arenas []*Arena) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng != e {
		return
	}
	for _, a := range arenas {
		if !a.dead {
			a.opt.Telemetry, a.opt.Events, a.met = nil, nil, arenaMetrics{}
			e.idle = append(e.idle, a)
		}
	}
}
