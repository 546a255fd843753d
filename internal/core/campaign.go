package core

import (
	"errors"
	"fmt"
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
// sub-universe of it. A Campaign is plain data that no Run call changes,
// so it may be copied and run from several goroutines at once.
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

	// prog is Job's assembled program, as Record assembled it; nil in a
	// campaign built by hand, whose Run calls assemble their own.
	prog *asm.Program
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
	results, _, progs, err := runJobs(cfg, jobs, maxGoldenCycles, func(s *soc.SoC) {
		rec = s.AttachRecorder(underTest)
	})
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	prog := progs[underTest]
	golden := results[underTest]
	if !golden.OK {
		return nil, fmt.Errorf("golden run failed on core %d", underTest)
	}
	c := &Campaign{Cfg: cfg, Core: underTest, Job: jobs[underTest], Sites: sites,
		Budget: golden.Cycles*stallFactor + earlySlack, prog: prog}
	c.Cfg.Replay = rec.EventsByMaster()
	c.Header = CampaignFingerprint(prog, c.Cfg, c.Core, c.Job, c.Sites, c.Budget)
	return c, nil
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
// Each call runs its own golden capture and builds its own worker arenas
// on it (Campaign.arenas), and drops both when it returns. The capture
// places its checkpoints where the call's sites activate, less those a
// resumed journal settles (capture.place). The report's golden
// verdict is the capture's, and its Dispatch sums the call's arenas.
// Concurrent calls are safe.
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
	prog := c.prog
	if prog == nil {
		var err error
		if prog, err = buildProgram(c.Job); err != nil {
			return fault.Report{}, err
		}
	}
	simOpt := fault.SimOptions{Telemetry: reg, Events: opt.Events, OnSettle: opt.OnSettle, OnGolden: opt.OnGolden, Claim: opt.Claim}
	if opt.Journal != "" {
		header := CampaignFingerprint(prog, c.Cfg, c.Core, c.Job, sites, c.Budget)
		var j *fault.Journal
		var err error
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
	}
	mode := ArenaOptions{Reference: opt.Reference, Telemetry: reg, Events: opt.Events}
	var iv int64
	if !opt.Reference {
		iv = checkpointInterval(c.Budget)
	}
	n := fault.Workers(opt.Workers, len(sites))
	arenas, err := c.arenas(prog, mode, iv, sites, simOpt.Journal, n)
	if err != nil {
		return fault.Report{}, err
	}
	runners := make([]fault.RunFunc, n)
	for w, a := range arenas {
		runners[w] = a.Run
	}
	// Simulate asks runner 0 for the fault-free plane only for the golden
	// verdict, which the capture already holds: answer it without a replay.
	a0, gold := arenas[0], arenas[0].gold
	runners[0] = func(p fault.Plane) (uint32, bool) {
		if p == fault.None {
			return gold.res.Signature, gold.ok
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
	for _, a := range arenas {
		rep.Dispatch.Add(a.st.Dispatch)
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

// arenas builds a Run call's n worker arenas in engine mode opt over one
// golden capture with checkpoints every iv cycles (none when iv is 0),
// then placed where the sites that journal j (nil for none) leaves
// unsettled activate: the first arena over the SoC the capture ran on,
// the other n-1 over fresh SoCs from its image, built concurrently.
func (c *Campaign) arenas(prog *asm.Program, opt ArenaOptions, iv int64, sites []fault.Site, j *fault.Journal, n int) ([]*Arena, error) {
	g, s, err := newCapture(c.Cfg, c.Core, c.Job, prog, c.Budget, opt, iv)
	if err != nil {
		return nil, err
	}
	place := sites
	if j != nil {
		place = make([]fault.Site, 0, len(sites))
		for i, site := range sites {
			if _, _, _, ok := j.Settled(i); !ok {
				place = append(place, site)
			}
		}
	}
	g.place(s, place, n)
	arenas := make([]*Arena, n)
	arenas[0] = g.arena(s)
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arenas[w] = g.arena(soc.NewFromImage(g.cfg, g.img))
		}(w)
	}
	wg.Wait()
	return arenas, nil
}
