package conform

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/soc"
)

// Campaign-level conformance: the optimized arena (early exit on
// observable divergence, golden-run checkpointing, golden-verdict
// shortcuts) and the reference arena (Reference: full budget per run, no
// shortcuts) must produce bit-identical fault reports on any universe, in
// any environment. The fuzz scenario draws random environments and checks
// the *full* universe — no site cap — which is affordable precisely
// because both sides are arenas. CampaignEnv/CompareEngines are also the
// building blocks the fixed mode-equivalence tests use.

// CampaignEnv is one replayed fault-campaign environment: a multi-core
// golden configuration and the core under test.
type CampaignEnv struct {
	Cfg       soc.Config
	Jobs      [soc.NumCores]*core.CoreJob
	UnderTest int
	Workers   int // campaign parallelism (0 = GOMAXPROCS)
}

// NewCampaignEnv builds the standard campaign environment: the named
// library routine (see sbst.NewRoutineByName) on every active core, the
// core under test placed at pos with pad bytes of alignment padding, the
// others at the remaining code positions.
func NewCampaignEnv(module string, underTest, active int, pos, pad uint32, cached bool) (*CampaignEnv, error) {
	if underTest < 0 || underTest >= active || active > soc.NumCores {
		return nil, fmt.Errorf("conform: bad env: core %d of %d active", underTest, active)
	}
	cfg := soc.DefaultConfig()
	for id := 0; id < soc.NumCores; id++ {
		cfg.Cores[id].Active = id < active
		cfg.Cores[id].CachesOn = cached
		cfg.Cores[id].WriteAlloc = true
	}
	var strat core.Strategy = core.Plain{}
	if cached {
		strat = core.CacheBased{WriteAllocate: true}
	}
	positions := []uint32{soc.CodeLow, soc.CodeMid, soc.CodeHigh}
	env := &CampaignEnv{Cfg: cfg, UnderTest: underTest}
	slot := 0
	for id := 0; id < active; id++ {
		r, err := sbst.NewRoutineByName(module, sbst.RoutineOptions{
			DataBase:    mem.SRAMBase + 0x2000*uint32(id+1),
			CoreID:      id,
			TriggerReps: 2, // keep ICU routines short for fault grading
		})
		if err != nil {
			return nil, err
		}
		var base, alignPad uint32
		if id == underTest {
			base, alignPad = pos, pad
		} else {
			if positions[slot] == pos {
				slot++
			}
			base = positions[slot%len(positions)] + 0x10000
			slot++
		}
		env.Jobs[id] = &core.CoreJob{
			Routine:  r,
			Strategy: strat,
			CodeBase: base,
			AlignPad: alignPad,
		}
	}
	return env, nil
}

// CompareEngines runs the campaign under both arena modes (optimized and
// reference) and returns a description of any report divergence ("" when
// bit-identical). The golden full-system run and traffic recording happen
// once; both modes then fault-simulate against the same replayed
// environment.
func (e *CampaignEnv) CompareEngines(sites []fault.Site) (string, error) {
	c, err := e.record(sites)
	if err != nil {
		return "", err
	}
	return e.compareOn(c, sites)
}

// record performs the golden run and derives the replayed campaign
// (core.Record).
func (e *CampaignEnv) record(sites []fault.Site) (*core.Campaign, error) {
	c, err := core.Record(e.Cfg, e.Jobs, e.UnderTest, sites)
	if err != nil {
		return nil, fmt.Errorf("conform: %w", err)
	}
	return c, nil
}

// compareOn runs both arena modes over sites — the recorded universe or a
// subset of it — in the recorded environment.
func (e *CampaignEnv) compareOn(c *core.Campaign, sites []fault.Site) (string, error) {
	run := func(reference bool) (fault.Report, error) {
		return c.Run(sites, core.CampaignOptions{Workers: e.Workers, Reference: reference})
	}
	ref, err := run(true)
	if err != nil {
		return "", fmt.Errorf("reference arena: %w", err)
	}
	opt, err := run(false)
	if err != nil {
		return "", fmt.Errorf("optimized arena: %w", err)
	}
	return DiffReports(ref, opt, sites), nil
}

// DiffReports compares two campaign reports site by site and summarises
// any divergence ("" when bit-identical). By convention the first report
// is the reference-mode one.
func DiffReports(ref, opt fault.Report, sites []fault.Site) string {
	var diffs []string
	if len(ref.Results) != len(opt.Results) {
		diffs = append(diffs, fmt.Sprintf("result count %d (reference) != %d (optimized)",
			len(ref.Results), len(opt.Results)))
	}
	if ref.Golden != opt.Golden || ref.GoldenOK != opt.GoldenOK {
		diffs = append(diffs, fmt.Sprintf("golden %08x/%v (reference) != %08x/%v (optimized)",
			ref.Golden, ref.GoldenOK, opt.Golden, opt.GoldenOK))
	}
	if ref.Detected != opt.Detected {
		diffs = append(diffs, fmt.Sprintf("detected %d (reference) != %d (optimized)",
			ref.Detected, opt.Detected))
	}
	for i := range ref.Results {
		if i >= len(opt.Results) {
			diffs = append(diffs, fmt.Sprintf("optimized report short: %d sites, reference %d",
				len(opt.Results), len(ref.Results)))
			break
		}
		if ref.Results[i] != opt.Results[i] {
			diffs = append(diffs, fmt.Sprintf("%v: reference %+v, optimized %+v",
				sites[i], ref.Results[i], opt.Results[i]))
		}
	}
	return renderDiffs(diffs)
}

// runCampaignSeed is one iteration of the campaign fuzz scenario: a full
// fault universe (no sampling — the reference arena can afford it) through
// a random environment, both arena modes, reports compared bit by bit.
func runCampaignSeed(seed int64) *Mismatch {
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
	switch rng.Intn(4) {
	case 0:
		module = "forwarding"
		sites = fault.ForwardingLogic(fault.ListOptions{DataBits: bits, BitStep: 8})
	case 1:
		module = "forwarding"
		sites = fault.TransitionFaults(fault.ListOptions{DataBits: bits, BitStep: 8})
	case 2:
		module = "hdcu"
		sites = fault.HDCU(fault.ListOptions{DataBits: bits, BitStep: 8})
	default:
		module = "icu"
		sites = fault.ICU(fault.ListOptions{BitStep: 1})
	}
	fault.SortSites(sites)

	env, err := NewCampaignEnv(module, underTest, active, pos, pad, cached)
	if err != nil {
		return &Mismatch{Scenario: "campaign", Seed: seed, Detail: err.Error()}
	}
	c, err := env.record(sites)
	if err != nil {
		return &Mismatch{Scenario: "campaign", Seed: seed, Detail: err.Error()}
	}
	recheck := func(sub []fault.Site) string {
		detail, err := env.compareOn(c, sub)
		if err != nil {
			return err.Error()
		}
		return detail
	}
	if detail := recheck(sites); detail != "" {
		return &Mismatch{
			Scenario:     "campaign",
			Seed:         seed,
			Detail:       fmt.Sprintf("%s campaign (%d cores, core %d under test): %s", module, active, underTest, detail),
			Sites:        sites,
			recheckSites: recheck,
		}
	}
	return nil
}
