package core

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/soc"
)

// Campaign is one recorded fault campaign: the replay environment, the
// job under test, the ordered fault universe, the per-run cycle budget and
// the content address. Record builds it; RunCampaignOpts simulates it (or
// any sub-range of its universe).
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
	c.Header, err = CampaignFingerprint(c.Cfg, c.Core, c.Job, c.Sites, c.Budget)
	if err != nil {
		return nil, fmt.Errorf("fingerprint: %w", err)
	}
	return c, nil
}
