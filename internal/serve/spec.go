package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/soc"
)

// Spec is the wire form of a campaign request: the paper-shaped knobs that
// fully determine a campaign as a pure function. Everything else about a
// job — worker count, shard size, engine mode — is execution strategy and
// deliberately kept out, so it can vary between submissions without
// changing the campaign's content address.
type Spec struct {
	// Routine is the self-test routine name (sbst.NewRoutineByName);
	// empty means "forwarding".
	Routine string `json:"routine,omitempty"`
	// Core is the core under test: 0 (A), 1 (B) or 2 (C, 64-bit lanes).
	Core int `json:"core,omitempty"`
	// Strategy is the execution strategy: "plain", "cache" or "tcm";
	// empty means "cache".
	Strategy string `json:"strategy,omitempty"`
	// Multicore replays 3-core bus contention around the core under test;
	// false runs the core alone.
	Multicore bool `json:"multicore,omitempty"`
	// BitStep enumerates every Nth data bit of wide sites (campaign
	// reduction); <= 0 means 1 (every bit).
	BitStep int `json:"bitstep,omitempty"`
	// Faults selects the fault model: "stuckat" (default) or "transition"
	// (forwarding routine only).
	Faults string `json:"faults,omitempty"`
}

// Normalized fills the documented defaults and validates the spec, so
// every representation of the same campaign hashes to the same content
// address.
func (s Spec) Normalized() (Spec, error) {
	if s.Routine == "" {
		s.Routine = "forwarding"
	}
	if s.Strategy == "" {
		s.Strategy = "cache"
	}
	if s.BitStep <= 0 {
		s.BitStep = 1
	}
	if s.Faults == "" {
		s.Faults = "stuckat"
	}
	if s.Core < 0 || s.Core >= soc.NumCores {
		return s, fmt.Errorf("serve: core %d outside 0..%d", s.Core, soc.NumCores-1)
	}
	switch s.Strategy {
	case "plain", "cache", "tcm":
	default:
		return s, fmt.Errorf("serve: unknown strategy %q", s.Strategy)
	}
	switch s.Faults {
	case "stuckat":
	case "transition":
		if s.Routine != "forwarding" {
			return s, fmt.Errorf("serve: fault model transition requires the forwarding routine")
		}
	default:
		return s, fmt.Errorf("serve: unknown fault model %q", s.Faults)
	}
	return s, nil
}

// Campaign is one fully built campaign: the normalized spec plus the
// recorded core.Campaign — replay environment, job under test, ordered
// fault universe, per-run cycle budget and content address. It is what the
// server fingerprints at submission and what a worker simulates shards of
// — both sides build it from the same Spec, so they agree bit for bit.
type Campaign struct {
	// Spec is the normalized request this campaign was built from.
	Spec Spec
	*core.Campaign
}

// Build constructs the campaign: routines and strategy for every active
// core and the fault universe, then core.Record's golden full-system run
// recording the other cores' bus traffic, and the replay environment,
// budget and fingerprint derived from it. Construction is deterministic —
// two Builds of one normalized Spec (in any process) produce identical
// programs, universes, traffic and fingerprints. This is the exact
// construction cmd/faultsim performs, so a service job and a local
// faultsim run of the same spec are the same pure function.
func (s Spec) Build() (*Campaign, error) {
	spec, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	mkRoutine := func(id int) (*sbst.Routine, error) {
		return sbst.NewRoutineByName(spec.Routine, sbst.RoutineOptions{
			DataBase:    mem.SRAMBase + 0x2000*uint32(id+1),
			CoreID:      id,
			TriggerReps: 2,
		})
	}
	var strat core.Strategy
	cached := false
	switch spec.Strategy {
	case "plain":
		strat = core.Plain{}
	case "cache":
		strat = core.CacheBased{WriteAllocate: true}
		cached = true
	case "tcm":
		strat = core.TCMBased{CoreID: spec.Core}
	}

	bits := 32
	if spec.Core == 2 {
		bits = 64
	}
	opts := fault.ListOptions{DataBits: bits, BitStep: spec.BitStep}
	var sites []fault.Site
	switch {
	case spec.Faults == "transition": // Normalized: forwarding only
		sites = fault.TransitionFaults(opts)
	case spec.Routine == "forwarding":
		sites = fault.ForwardingLogic(opts)
	case spec.Routine == "hdcu":
		sites = append(fault.HDCU(opts), fault.PerfCounters(opts)...)
	case spec.Routine == "icu":
		sites = fault.ICU(opts)
	}
	fault.SortSites(sites)
	if len(sites) == 0 {
		return nil, fmt.Errorf("serve: routine %q has no fault universe (want forwarding, hdcu or icu)", spec.Routine)
	}

	// Environment: the other cores run the same routine for contention.
	active := 1
	if spec.Multicore {
		active = soc.NumCores
	}
	cfg := soc.DefaultConfig()
	var jobs [soc.NumCores]*core.CoreJob
	for id := 0; id < soc.NumCores; id++ {
		cfg.Cores[id].Active = id < active || id == spec.Core
		cfg.Cores[id].CachesOn = cached
		cfg.Cores[id].WriteAlloc = true
		if cfg.Cores[id].Active {
			r, err := mkRoutine(id)
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			jobs[id] = &core.CoreJob{
				Routine:  r,
				Strategy: core.Plain{},
				CodeBase: soc.CodeLow + uint32(id)*0x10000,
			}
			if id == spec.Core {
				jobs[id].Strategy = strat
			}
		}
	}

	c, err := core.Record(cfg, jobs, spec.Core, sites)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &Campaign{Spec: spec, Campaign: c}, nil
}
