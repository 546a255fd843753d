package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// Options tunes experiment cost.
type Options struct {
	// Quick reduces fault universes (bit sampling) and scenario counts so
	// the whole suite runs in seconds; the full setting is for cmd/repro.
	Quick bool
	// Workers bounds fault-simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Reference runs the campaigns in the engine's reference mode (full
	// budget, no early exit, no checkpoints, no golden-verdict shortcut)
	// instead of the optimized default, which takes the automatic golden
	// checkpoints. Reports are bit-identical across the two modes; see
	// core.CampaignOptions.Reference.
	Reference bool
	// Telemetry, when non-nil, receives every campaign's metrics plus a
	// per-table span histogram (experiment_<table>_ns). Nil disables
	// metrics at zero cost; see core.CampaignOptions.Telemetry.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives every campaign's event stream plus
	// one span event per table sweep.
	Events *telemetry.EventLog
	// Progress > 0 forwards a progress-line interval to every campaign;
	// see core.CampaignOptions.Progress.
	Progress time.Duration
}

// span times one table sweep: started on entry, the returned func records
// an experiment_<name>_ns span in the registry and emits a span event.
// Both sinks detached makes it a no-op.
func (o Options) span(name string) func() {
	if o.Telemetry == nil && o.Events == nil {
		return func() {}
	}
	sp := o.Telemetry.StartSpan("experiment_" + name + "_ns")
	start := time.Now()
	return func() {
		sp.End()
		if o.Events != nil {
			o.Events.Emit(telemetry.Event{Kind: telemetry.EventSpan, Name: name,
				ElapsedNs: time.Since(start).Nanoseconds()})
		}
	}
}

func (o Options) bitStep() int {
	if o.Quick {
		return 8
	}
	return 1
}

// maxRunCycles bounds any single simulation (watchdog).
const maxRunCycles = 6_000_000

// coreName maps core IDs to the paper's labels.
func coreName(id int) string { return string(rune('A' + id)) }

func dataBaseFor(id int) uint32 { return mem.SRAMBase + 0x2000*uint32(id+1) }

// positions returns the three flash placements of the Table II scenarios.
func positions() []uint32 { return []uint32{soc.CodeLow, soc.CodeMid, soc.CodeHigh} }

// baseConfig returns an SoC configuration with the first n cores active.
func baseConfig(n int, cached bool) soc.Config {
	cfg := soc.DefaultConfig()
	for id := 0; id < soc.NumCores; id++ {
		cfg.Cores[id].Active = id < n
		cfg.Cores[id].CachesOn = cached
		cfg.Cores[id].WriteAlloc = true
	}
	return cfg
}

// ---------------------------------------------------------------------------
// Table I: stalls due to the memory subsystem vs number of active cores.

// TableIRow is one row of Table I.
type TableIRow struct {
	ActiveCores int
	IFStalls    int64 // clock cycles, summed over active cores, averaged over phases
	MemStalls   int64
}

// TableI runs the generic STL in parallel on 1..3 cores (no caches, as in
// the paper's baseline) and reports the stall cycles counted by the
// performance counters, averaged across start-phase scenarios.
func TableI(o Options) ([]TableIRow, error) {
	defer o.span("table1")()
	phases := [][soc.NumCores]int{{0, 0, 0}, {0, 11, 23}, {7, 0, 17}}
	if o.Quick {
		phases = phases[:2]
	}
	var rows []TableIRow
	for n := 1; n <= soc.NumCores; n++ {
		var ifSum, memSum int64
		for _, ph := range phases {
			cfg := baseConfig(n, false)
			var jobs [soc.NumCores]*core.CoreJob
			for id := 0; id < n; id++ {
				cfg.Cores[id].StartDelay = ph[id]
				var routines []*sbst.Routine
				routines = append(routines, sbst.StandardSTL(dataBaseFor(id))...)
				jobs[id] = &core.CoreJob{
					Routines: routines,
					Strategy: core.Plain{},
					CodeBase: positions()[id%3] + uint32(id)*0x4000,
				}
			}
			results, _, err := core.RunJobs(cfg, jobs, maxRunCycles)
			if err != nil {
				return nil, err
			}
			for id := 0; id < n; id++ {
				if !results[id].OK {
					return nil, fmt.Errorf("experiments: table I: core %d failed", id)
				}
				ifSum += int64(results[id].IFStall)
				memSum += int64(results[id].MemStall)
			}
		}
		rows = append(rows, TableIRow{
			ActiveCores: n,
			IFStalls:    ifSum / int64(len(phases)),
			MemStalls:   memSum / int64(len(phases)),
		})
	}
	return rows, nil
}

// RenderTableI formats the rows like the paper's Table I.
func RenderTableI(rows []TableIRow) string {
	var sb strings.Builder
	sb.WriteString("Table I: multi-core STL execution, stalls due to the memory subsystem\n")
	sb.WriteString("# Active Cores | IF stalls [cycles] | MEM stalls [cycles]\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%14d | %18d | %19d\n", r.ActiveCores, r.IFStalls, r.MemStalls)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Shared fault-campaign plumbing.

// scenarioSpec is one multi-core SoC configuration of the Table II sweep.
type scenarioSpec struct {
	active int    // number of active cores
	pos    uint32 // code position of the core under test
	pad    uint32 // alignment padding in bytes
}

func tableIIScenarios(quick bool) []scenarioSpec {
	var out []scenarioSpec
	for _, active := range []int{2, 3} {
		for _, pos := range positions() {
			for _, pad := range []uint32{0, 8, 16} {
				out = append(out, scenarioSpec{active, pos, pad})
			}
		}
	}
	if quick {
		// Keep a diverse subset: both core counts, all positions.
		out = []scenarioSpec{
			{2, soc.CodeLow, 0}, {3, soc.CodeMid, 8},
			{3, soc.CodeHigh, 16}, {3, soc.CodeLow, 8},
		}
	}
	return out
}

// campaign runs a fault-free multi-core scenario to record golden signature
// and bus traffic, then fault-simulates the core under test against the
// replayed traffic.
type campaign struct {
	underTest int
	cfg       soc.Config // configuration for the golden (full) run
	jobs      [soc.NumCores]*core.CoreJob
	opts      Options
}

func newCampaign(o Options, underTest int, cfg soc.Config, jobs [soc.NumCores]*core.CoreJob) campaign {
	return campaign{underTest: underTest, cfg: cfg, jobs: jobs, opts: o}
}

func (c campaign) run(sites []fault.Site) (fault.Report, error) {
	rc, err := core.Record(c.cfg, c.jobs, c.underTest, sites)
	if err != nil {
		return fault.Report{}, fmt.Errorf("experiments: %w", err)
	}
	opt := core.CampaignOptions{Workers: c.opts.Workers, Reference: c.opts.Reference,
		Telemetry: c.opts.Telemetry, Events: c.opts.Events, Progress: c.opts.Progress}
	rep, err := rc.Run(rc.Sites, opt)
	if err != nil {
		return fault.Report{}, err
	}
	if !rep.GoldenOK {
		return rep, fmt.Errorf("experiments: replay golden run failed on core %d", c.underTest)
	}
	// Note: fault detection compares faulty runs against the golden of the
	// same replayed environment, so the campaign is internally consistent
	// even though replayed arbitration can differ slightly from the full
	// system (replay masters occupy different round-robin slots).
	return rep, nil
}

// forwardingJobs builds per-core forwarding-test jobs; the core under test
// sits at spec.pos with spec.pad, the other cores at the remaining
// positions.
func forwardingJobs(underTest int, spec scenarioSpec, strat func(id int) core.Strategy, withPC bool) [soc.NumCores]*core.CoreJob {
	var jobs [soc.NumCores]*core.CoreJob
	pos := positions()
	slot := 0
	for id := 0; id < spec.active; id++ {
		var base uint32
		var pad uint32
		if id == underTest {
			base, pad = spec.pos, spec.pad
		} else {
			if pos[slot] == spec.pos {
				slot++
			}
			base = pos[slot%len(pos)] + 0x10000
			slot++
		}
		jobs[id] = &core.CoreJob{
			Routine: sbst.NewForwardingTest(sbst.ForwardingOptions{
				DataBase:         dataBaseFor(id),
				WithPerfCounters: withPC,
				Pairs64:          id == 2,
			}),
			Strategy: strat(id),
			CodeBase: base,
			AlignPad: pad,
		}
	}
	return jobs
}

// ---------------------------------------------------------------------------
// Table II: forwarding-logic fault coverage, min-max without caches versus
// stable coverage with the cache-based strategy.

// TableIIRow is one row of Table II.
type TableIIRow struct {
	Core      string
	Faults    int
	MinFC     float64 // no caches, no PCs: minimum over scenarios
	MaxFC     float64
	CacheFC   float64 // cache-based strategy
	Scenarios int
}

// TableII fault-grades the forwarding logic of each core.
func TableII(o Options) ([]TableIIRow, error) {
	defer o.span("table2")()
	return forwardingSweep(o, "", func(bits int) []fault.Site {
		return fault.ForwardingLogic(fault.ListOptions{DataBits: bits, BitStep: o.bitStep()})
	})
}

// forwardingSweep fault-grades each core's forwarding logic over the
// universe that universe(dataBits) lists: min-max coverage across the
// plain multi-core scenarios plus one cache-based scenario. Errors carry
// prefix ahead of the core label.
func forwardingSweep(o Options, prefix string, universe func(bits int) []fault.Site) ([]TableIIRow, error) {
	var rows []TableIIRow
	for id := 0; id < soc.NumCores; id++ {
		bits := 32
		if id == 2 {
			bits = 64
		}
		sites := universe(bits)
		fault.SortSites(sites)

		// Without caches, without performance counters: coverage per
		// scenario.
		var reports []fault.Report
		for _, spec := range tableIIScenarios(o.Quick) {
			if id >= spec.active {
				continue // core not active in this scenario
			}
			c := newCampaign(o, id, baseConfig(spec.active, false),
				forwardingJobs(id, spec, func(int) core.Strategy { return core.Plain{} }, false))
			rep, err := c.run(sites)
			if err != nil {
				return nil, fmt.Errorf("%score %s: %w", prefix, coreName(id), err)
			}
			reports = append(reports, rep)
		}
		mm := fault.NewMinMax(reports)

		// With the cache-based strategy (still no PCs, matching the
		// paper's column): one representative multi-core scenario.
		spec := scenarioSpec{active: 3, pos: soc.CodeLow, pad: 0}
		c := newCampaign(o, id, baseConfig(3, true),
			forwardingJobs(id, spec,
				func(int) core.Strategy { return core.CacheBased{WriteAllocate: true} }, false))
		cacheRep, err := c.run(sites)
		if err != nil {
			return nil, fmt.Errorf("%score %s cached: %w", prefix, coreName(id), err)
		}

		rows = append(rows, TableIIRow{
			Core:      coreName(id),
			Faults:    len(sites),
			MinFC:     mm.Min,
			MaxFC:     mm.Max,
			CacheFC:   cacheRep.Coverage(),
			Scenarios: len(reports),
		})
	}
	return rows, nil
}

// RenderTableII formats the rows like the paper's Table II.
func RenderTableII(rows []TableIIRow) string {
	var sb strings.Builder
	sb.WriteString("Table II: forwarding logic fault simulation results\n")
	sb.WriteString("Core | # of Faults | min - max FC [%] (no caches, no PCs) | FC [%] (caches, no PCs)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%4s | %11d | %17.2f - %.2f | %23.2f\n",
			r.Core, r.Faults, r.MinFC, r.MaxFC, r.CacheFC)
	}
	return sb.String()
}
