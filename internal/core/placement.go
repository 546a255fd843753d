package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/soc"
)

// Checkpoint placement. A stuck-at or transition run is the golden run
// until its site's first activation, so it starts from the last golden
// checkpoint before that cycle and replays the golden prefix from there:
// its pre-activation replay. A campaign's activations fall on a few dozen
// distinct cycles, most of them early in the golden run, which evenly
// spaced checkpoints miss. Campaign.Run's capture therefore keeps the
// number of checkpoints the interval takes and moves them to where the
// sites of its call activate (capture.place).

// activations returns the first-activation cycle of every site of sites
// that activates in the capture run; sites that never activate take the
// golden shortcut and replay nothing.
func (g *capture) activations(sites []fault.Site) []int64 {
	acts := make([]int64, 0, len(sites))
	for _, s := range sites {
		if act := g.probe.FirstActivation(s); act >= 0 {
			acts = append(acts, act)
		}
	}
	return acts
}

// cycles returns the capture's checkpoint cycles, ascending.
func (g *capture) cycles() []int64 {
	out := make([]int64, len(g.ckpts))
	for i := range g.ckpts {
		out[i] = g.ckpts[i].cycle
	}
	return out
}

// prefixCycles is the pre-activation replay of runs activating at acts
// with checkpoints at the ascending cycles ckpts: each run starts from the
// last checkpoint before its activation, or from cycle 0.
func prefixCycles(acts, ckpts []int64) int64 {
	var sum int64
	for _, act := range acts {
		if i := sort.Search(len(ckpts), func(i int) bool { return ckpts[i] >= act }); i > 0 {
			sum += act - ckpts[i-1]
		} else {
			sum += act
		}
	}
	return sum
}

// placement returns the ascending checkpoint cycles, at most k of them,
// that minimise prefixCycles(acts, ·). Some optimal placement puts
// each checkpoint one cycle before a distinct activation cycle c >= 2:
// moving a checkpoint later, up to the first activation it serves, only
// shortens prefixes. The exact DP over those m candidates takes O(k·m²)
// steps, and it places min(k, m) checkpoints, as one more never costs.
func placement(acts []int64, k int) []int64 {
	// c holds the distinct activation cycles >= 2 and w how many runs
	// activate at each; activations at cycles 0 and 1 replay the same from
	// cycle 0 whatever the placement.
	var c, w []int64
	for _, act := range slices.Sorted(slices.Values(acts)) {
		switch {
		case act < 2:
		case len(c) > 0 && c[len(c)-1] == act:
			w[len(w)-1]++
		default:
			c, w = append(c, act), append(w, 1)
		}
	}
	m := len(c)
	if k = min(k, m); k <= 0 {
		return nil
	}
	// With prefix sums W of w and S of w·c, seg(i, l) is the replay of
	// activations i..l-1 from a checkpoint at c[i]-1.
	W, S := make([]int64, m+1), make([]int64, m+1)
	for i := range c {
		W[i+1], S[i+1] = W[i]+w[i], S[i]+w[i]*c[i]
	}
	seg := func(i, l int) int64 { return S[l] - S[i] - (c[i]-1)*(W[l]-W[i]) }

	// cost[j][i] is the least replay of activations i..m-1 from j
	// checkpoints, the first at c[i]-1 (defined for i+j <= m); next[j][i]
	// is the candidate of the second.
	cost, next := make([][]int64, k+1), make([][]int, k+1)
	cost[1] = make([]int64, m)
	for i := range m {
		cost[1][i] = seg(i, m)
	}
	for j := 2; j <= k; j++ {
		cost[j], next[j] = make([]int64, m), make([]int, m)
		for i := 0; i+j <= m; i++ {
			best := int64(math.MaxInt64)
			for l := i + 1; l+j-1 <= m; l++ {
				if v := seg(i, l) + cost[j-1][l]; v < best {
					best, next[j][i] = v, l
				}
			}
			cost[j][i] = best
		}
	}
	// Activations before the first checkpoint replay from cycle 0.
	first, best := 0, int64(math.MaxInt64)
	for i := 0; i+k <= m; i++ {
		if v := S[i] + cost[k][i]; v < best {
			first, best = i, v
		}
	}
	pos := make([]int64, 0, k)
	for j, i := k, first; j >= 1; j-- {
		pos = append(pos, c[i]-1)
		if j > 1 {
			i = next[j][i]
		}
	}
	return pos
}

// place moves the capture's uniform checkpoints to the placement that
// minimises the pre-activation replay of sites, keeping their number, by a
// second golden pass on s, the SoC the capture ran on. That pass runs from
// cycle 0 to the last new checkpoint while the campaign's n arenas wait,
// and a probed golden cycle costs about two replay cycles, so the
// checkpoints move only when the replay saved exceeds 2·n times that last
// cycle. Any golden checkpoint before an activation is sound, so keeping
// the uniform ones changes no verdict. A capture without checkpoints
// (checkpointing off, reference mode, a failed capture) is left as it is.
func (g *capture) place(s *soc.SoC, sites []fault.Site, n int) {
	if len(g.ckpts) == 0 {
		return
	}
	acts := g.activations(sites)
	pos := placement(acts, len(g.ckpts))
	if len(pos) == 0 {
		return
	}
	saved := prefixCycles(acts, g.cycles()) - prefixCycles(acts, pos)
	if saved <= 2*int64(n)*pos[len(pos)-1] {
		return
	}
	g.ckpts = nil
	_, g.ckpts = g.goldenPass(s, fault.NewProbe(s.Cycle), pos[len(pos)-1], pos)
}
