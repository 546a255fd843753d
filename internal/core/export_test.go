package core

import "repro/internal/soc"

// CheckpointPlacement runs c's golden capture with the auto checkpoint
// interval, as a Campaign.Run of c.Sites on n arenas does, and returns the
// cycles of the uniform checkpoints its capture run took, the activation
// cycles of c.Sites, the placement that minimises their replay for as many
// checkpoints, and the checkpoint cycles the capture keeps.
func CheckpointPlacement(c *Campaign, n int) (uniform, acts, planned, kept []int64, err error) {
	prog, err := buildProgram(c.Job)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g, s, err := newCapture(c.Cfg, c.Core, c.Job, prog, c.Budget, ArenaOptions{}, checkpointInterval(c.Budget))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	uniform = g.cycles()
	acts = g.activations(c.Sites)
	planned = placement(acts, len(uniform))
	g.place(s, c.Sites, n)
	return uniform, acts, planned, g.cycles(), nil
}

// PrefixCycles is prefixCycles: the pre-activation replay of runs
// activating at acts with checkpoints at the ascending cycles ckpts.
var PrefixCycles = prefixCycles

// ReferenceArenas builds the n arenas a reference-mode Run call of c's
// universe builds: the first over the SoC its golden capture ran on, the
// others over fresh SoCs from the capture's image.
func ReferenceArenas(c *Campaign, n int) ([]*Arena, error) {
	prog, err := buildProgram(c.Job)
	if err != nil {
		return nil, err
	}
	return c.arenas(prog, ArenaOptions{Reference: true}, 0, c.Sites, nil, n)
}

// LoadJobs is loadJobs: the SoC RunJobsSetup runs, loaded and with the
// jobs' cores started, before it runs.
func LoadJobs(cfg soc.Config, jobs [soc.NumCores]*CoreJob, setup func(*soc.SoC)) (*soc.SoC, error) {
	s, _, err := loadJobs(cfg, jobs, setup)
	return s, err
}

// ResultOf is core id's RunResult at the end of a run of s, done when s
// is.
func ResultOf(s *soc.SoC, id int) RunResult { return coreResult(s.Cores[id], s.Done()) }
