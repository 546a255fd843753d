package core

// CheckpointPlacement builds c's capture arena with the auto checkpoint
// interval, as a Campaign.Run of c.Sites on n arenas does, and returns the
// cycles of the uniform checkpoints its capture run took, the activation
// cycles of c.Sites, the placement that minimises their replay for as many
// checkpoints, and the checkpoint cycles the capture keeps.
func CheckpointPlacement(c *Campaign, n int) (uniform, acts, planned, kept []int64, err error) {
	prog, err := buildProgram(c.Job)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	opt := ArenaOptions{CheckpointInterval: resolveCheckpointInterval(0, c.Budget)}
	a, err := newArena(c.Cfg, c.Core, c.Job, prog, c.Budget, opt)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	uniform = a.gold.cycles()
	acts = a.gold.activations(c.Sites)
	planned = placement(acts, len(uniform))
	a.placeCheckpoints(c.Sites, n)
	return uniform, acts, planned, a.gold.cycles(), nil
}

// PrefixCycles is prefixCycles: the pre-activation replay of runs
// activating at acts with checkpoints at the ascending cycles ckpts.
var PrefixCycles = prefixCycles
