package conform

import (
	"fmt"
	"math/rand"

	"repro/internal/archint"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/soc"
)

// Multi-fault conformance: simultaneous fault groups (fault.Composite) and
// fault x planned-interrupt crosses must settle bit-identical verdicts
// under the optimized arena (early exit on observable divergence) and the
// reference arena (full budget, no shortcuts). Pair universes grow
// quadratically with the site pool, so the scenario steers instead of
// enumerating: every candidate single site runs once under coverage
// instrumentation and a greedy max-gain pass keeps the most behaviourally
// diverse sites; only those are paired up. Mismatches minimize along both
// axes — drop a whole group, then shrink a surviving pair to the single
// component that still diverges.

// maxSteerCandidates caps the single-site pool the steering pass measures,
// and steeredSites is how many it keeps: pairing k sites yields k*(k-1)/2
// groups, so the verdict comparison stays affordable per seed.
const (
	maxSteerCandidates = 24
	steeredSites       = 6
)

// steerSites measures each candidate site's coverage bits with one
// instrumented run on the arena and greedily keeps the k most diverse
// sites (max marginal gain, deterministic ties — see coverage.PickGreedy).
// The returned union is the coverage the kept set reached, the
// reachability signal the pinned scenario test asserts on.
func steerSites(ar *core.Arena, sites []fault.Site, k int) ([]fault.Site, coverage.Bits) {
	cov := new(coverage.Map)
	ar.SoC().SetCoverage(cov)
	defer ar.SoC().SetCoverage(nil)
	cands := make([]coverage.Bits, len(sites))
	for i, s := range sites {
		cov.Reset()
		ar.Run(fault.PlaneFor(s))
		cands[i] = cov.Bits()
	}
	picked, union := coverage.PickGreedy(cands, k)
	out := make([]fault.Site, 0, len(picked))
	for _, idx := range picked {
		out = append(out, sites[idx])
	}
	fault.SortSites(out)
	return out, union
}

// groupVerdict is one multi-fault group's canonical outcome. Crashed runs
// record signature 0, the same canonicalisation fault.SiteResult applies,
// so verdicts compare bit by bit across arena modes.
type groupVerdict struct {
	sig     uint32
	crashed bool
}

// runGroups serves every group on one arena, one composite plane per group.
func runGroups(ar *core.Arena, groups [][]fault.Site) []groupVerdict {
	out := make([]groupVerdict, len(groups))
	for i, g := range groups {
		sig, ok := ar.Run(fault.CompositeFor(g))
		if !ok {
			sig = 0
		}
		out[i] = groupVerdict{sig: sig, crashed: !ok}
	}
	return out
}

// compareGroups runs the group universe under both arena modes (fresh
// arenas, same interrupt plan) and describes any divergence — golden run
// included ("" when bit-identical).
func compareGroups(c *core.Campaign, plan archint.Plan, groups [][]fault.Site) (string, error) {
	opt, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{Plan: plan})
	if err != nil {
		return "", fmt.Errorf("optimized arena: %w", err)
	}
	ref, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{NoEarlyExit: true, Plan: plan})
	if err != nil {
		return "", fmt.Errorf("reference arena: %w", err)
	}
	var diffs []string
	osig, ook := opt.Run(fault.None)
	rsig, rok := ref.Run(fault.None)
	if osig != rsig || ook != rok {
		diffs = append(diffs, fmt.Sprintf("golden %08x/%v (reference) != %08x/%v (optimized)",
			rsig, rok, osig, ook))
	}
	ov := runGroups(opt, groups)
	rv := runGroups(ref, groups)
	for i := range groups {
		if ov[i] != rv[i] {
			diffs = append(diffs, fmt.Sprintf("group %v: reference %+v, optimized %+v",
				groups[i], rv[i], ov[i]))
		}
	}
	return renderDiffs(diffs), nil
}

// runMultifaultSeed is one iteration of the multifault fuzz scenario: a
// random campaign environment, a coverage-steered site selection, the pair
// universe over it (optionally crossed with a random planned-interrupt
// sequence), both arena modes, verdicts compared bit by bit.
func runMultifaultSeed(seed int64) *Mismatch {
	rng := rand.New(rand.NewSource(seed))

	active := 2 + rng.Intn(soc.NumCores-1)
	underTest := rng.Intn(active)
	positions := []uint32{soc.CodeLow, soc.CodeMid, soc.CodeHigh}
	pos := positions[rng.Intn(len(positions))]
	pad := uint32(8 * rng.Intn(3))
	cached := rng.Intn(2) == 0

	bits := 32
	if underTest == 2 {
		bits = 64
	}
	var module string
	var sites []fault.Site
	switch rng.Intn(3) {
	case 0:
		// Stuck-at and transition sites share the pool, so steered pairs
		// may mix a stateless and a stateful component.
		module = "forwarding"
		sites = fault.ForwardingLogic(fault.ListOptions{DataBits: bits, BitStep: 4})
		sites = append(sites, fault.TransitionFaults(fault.ListOptions{DataBits: bits, BitStep: 4})...)
	case 1:
		module = "hdcu"
		sites = fault.HDCU(fault.ListOptions{DataBits: bits, BitStep: 4})
	default:
		module = "icu"
		sites = fault.ICU(fault.ListOptions{BitStep: 1})
	}
	fault.SortSites(sites)
	if len(sites) > maxSteerCandidates {
		sites = fault.Sample(sites, (len(sites)+maxSteerCandidates-1)/maxSteerCandidates)
	}

	env, err := NewCampaignEnv(module, underTest, active, pos, pad, cached)
	if err != nil {
		return &Mismatch{Scenario: "multifault", Seed: seed, Detail: err.Error()}
	}
	c, err := env.record(sites)
	if err != nil {
		return &Mismatch{Scenario: "multifault", Seed: seed, Detail: err.Error()}
	}

	steer, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{})
	if err != nil {
		return &Mismatch{Scenario: "multifault", Seed: seed, Detail: "steer arena: " + err.Error()}
	}
	picked, _ := steerSites(steer, sites, steeredSites)
	groups := fault.PairGroups(picked)

	// Half the seeds cross the fault groups with a planned interrupt
	// sequence. The plan perturbs the golden run too; when even the
	// fault-free run no longer completes under it (handler-less routines
	// may wedge on an unexpected take), the plan is dropped rather than
	// letting it fault every verdict.
	var plan archint.Plan
	if rng.Intn(2) == 0 {
		plan = archint.RandomPlan(rng)
		gate, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{Plan: plan})
		if err != nil || !gate.Stats().GoldenOK {
			plan = archint.Plan{}
		}
	}

	recheck := func(sub [][]fault.Site) string {
		detail, err := compareGroups(c, plan, sub)
		if err != nil {
			return err.Error()
		}
		return detail
	}
	if detail := recheck(groups); detail != "" {
		return &Mismatch{
			Scenario: "multifault",
			Seed:     seed,
			Detail: fmt.Sprintf("%s multifault (%d cores, core %d under test, plan=%v): %s",
				module, active, underTest, plan.Enabled(), detail),
			Groups:        groups,
			recheckGroups: recheck,
		}
	}
	return nil
}
