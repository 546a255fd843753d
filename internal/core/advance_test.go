package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/serve"
	"repro/internal/soc"
)

// advanceFixture is a built spec with its capture image: the SoCs
// TestAdvanceMatchesStep and FuzzAdvance drive are built over it.
type advanceFixture struct {
	c   *serve.Campaign
	cfg soc.Config // the capture's configuration: only the core under test active
	img *soc.Image
}

var (
	fixtureMu sync.Mutex
	fixtures  = map[serve.Spec]*advanceFixture{}
)

// fixture builds spec and its reference-mode capture once per process.
func fixture(t testing.TB, spec serve.Spec) *advanceFixture {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if fx := fixtures[spec]; fx != nil {
		return fx
	}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Cfg
	for k := range cfg.Cores {
		cfg.Cores[k].Active = k == c.Core
		cfg.Cores[k].Plane = nil
	}
	fx := &advanceFixture{c: c, cfg: cfg, img: a.SoC().Image()}
	fixtures[spec] = fx
	return fx
}

// start returns a SoC over the fixture's image, reset and started under
// site's plane (the golden run's for nil) as an arena's run from cycle 0
// is. Each SoC gets a plane of its own: a transition plane keeps state.
func (fx *advanceFixture) start(site *fault.Site) *soc.SoC {
	plane := fault.None
	if site != nil {
		plane = fault.PlaneFor(*site)
	}
	s := soc.NewFromImage(fx.cfg, fx.img)
	s.Reset()
	s.SetPlane(fx.c.Core, plane)
	s.Start(fx.c.Core, fx.c.Job.CodeBase)
	return s
}

// run drives site's run of the fixture's core from cycle 0 to its budget
// or until it drains, once by Step and once by Advance (compareAdvance).
func (fx *advanceFixture) run(t testing.TB, site *fault.Site, strides []byte) {
	t.Helper()
	compareAdvance(t, fx.start(site), fx.start(site), fx.c.Budget, strides, []int{fx.c.Core})
}

// compareAdvance drives stepped by Step and advanced by Advance from equal
// started states until advanced reaches cycle budget or drains. Each
// Advance's limit is the next stride of strides past its cycle (a 0
// stride, or no strides, is the budget). After every Advance, once
// stepped has stepped to the same cycle, the two must hold the same core
// and ICU states, counters included, and the same bus statistics for
// every master, and be done together; at the end, the same Snapshot, bus
// utilization and RunResult of each core in ids.
func compareAdvance(t testing.TB, stepped, advanced *soc.SoC, budget int64, strides []byte, ids []int) {
	t.Helper()
	for i := 0; advanced.Cycle() < budget && !advanced.Done(); i++ {
		from, limit := advanced.Cycle(), budget
		if len(strides) > 0 && strides[i%len(strides)] != 0 {
			limit = min(budget, from+int64(strides[i%len(strides)]))
		}
		advanced.Advance(limit)
		if c := advanced.Cycle(); c <= from || c > limit {
			t.Fatalf("Advance(%d) from cycle %d reached %d", limit, from, c)
		}
		for stepped.Cycle() < advanced.Cycle() {
			if stepped.Done() {
				t.Fatalf("the stepped SoC is done at cycle %d; Advance went on to %d", stepped.Cycle(), advanced.Cycle())
			}
			stepped.Step()
		}
		if err := sameCycleState(stepped, advanced); err != nil {
			t.Fatalf("after Advance(%d) from cycle %d to %d (%d skipped so far): %v",
				limit, from, advanced.Cycle(), advanced.SkippedCycles(), err)
		}
	}
	if !reflect.DeepEqual(stepped.Snapshot(), advanced.Snapshot()) {
		t.Fatalf("cycle %d: the snapshots differ", advanced.Cycle())
	}
	if u, v := stepped.Bus.Utilization(), advanced.Bus.Utilization(); u != v {
		t.Fatalf("bus utilization %v by Step, %v by Advance", u, v)
	}
	for _, id := range ids {
		if r, q := core.ResultOf(stepped, id), core.ResultOf(advanced, id); r != q {
			t.Fatalf("core %d: %+v by Step, %+v by Advance", id, r, q)
		}
	}
}

// sameCycleState compares what every cycle can change: each core's and
// ICU's state, counters included, each master's bus statistics and
// whether the SoC is done.
func sameCycleState(a, b *soc.SoC) error {
	for id := range soc.NumCores {
		ac, ai := a.Cores[id].Core.Snapshot()
		bc, bi := b.Cores[id].Core.Snapshot()
		if ac != bc {
			return fmt.Errorf("core %d: %s by Step, %s by Advance", id, a.Cores[id].Core, b.Cores[id].Core)
		}
		if ai != bi {
			return fmt.Errorf("core %d: ICU %+v by Step, %+v by Advance", id, ai, bi)
		}
	}
	for m := range a.Bus.Masters() {
		if x, y := a.Bus.StatsFor(m), b.Bus.StatsFor(m); x != y {
			return fmt.Errorf("master %d: bus statistics %+v by Step, %+v by Advance", m, x, y)
		}
	}
	if a.Done() != b.Done() {
		return fmt.Errorf("done %v by Step, %v by Advance", a.Done(), b.Done())
	}
	return nil
}

// forwardingSpec is the BenchmarkSoCStep campaign of strategy, single- or
// multicore.
func forwardingSpec(strategy string, multicore bool) serve.Spec {
	return serve.Spec{Routine: "forwarding", Strategy: strategy, Multicore: multicore, BitStep: 8, Faults: "stuckat"}
}

var (
	budgetSitesMu sync.Mutex
	budgetSites   = map[serve.Spec]int{}
)

// budgetSite returns the index of spec's first site whose reference run
// the cycle budget cuts, as BenchmarkSoCStep finds it, or -1.
func budgetSite(t testing.TB, spec serve.Spec) int {
	t.Helper()
	budgetSitesMu.Lock()
	defer budgetSitesMu.Unlock()
	if j, ok := budgetSites[spec]; ok {
		return j
	}
	c := fixture(t, spec).c
	a, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	j := slices.IndexFunc(c.Sites, func(s fault.Site) bool {
		checks := a.Stats().HealthChecks
		a.Run(fault.PlaneFor(s))
		return a.Stats().HealthChecks > checks
	})
	budgetSites[spec] = j
	return j
}

// benchRows returns the indices into spec's sites of BenchmarkSoCStep's
// rows: -1 for the golden run, the first forwarding-mux data site, and
// the first budget-cut site when the spec has one.
func benchRows(t testing.TB, spec serve.Spec) []int {
	sites := fixture(t, spec).c.Sites
	rows := []int{-1, slices.IndexFunc(sites, func(s fault.Site) bool { return s.Signal == fault.SigMuxData })}
	if j := budgetSite(t, spec); j >= 0 {
		rows = append(rows, j)
	}
	return rows
}

// strideSets are the limit strides TestAdvanceMatchesStep drives each run
// with: the budget alone, and a mix of short and long strides that stops
// windows at every offset.
var strideSets = [][]byte{nil, {1, 3, 7, 2, 0, 5, 64, 1, 9}}

// TestAdvanceMatchesStep is the oracle of SoC.Advance's quiet-cycle skip:
// the same runs driven by Step and by Advance hold the same core state,
// counters and bus statistics after every Advance, and end with the same
// snapshot, utilization and RunResult (compareAdvance). It covers the
// golden run and BenchmarkSoCStep's sites of every strategy, single- and
// multicore, of the forwarding campaign; a transition site; the ICU
// campaign, whose recognition countdown runs through IF stalls; the HDCU
// campaign; and a three-core golden recording through RunJobs.
func TestAdvanceMatchesStep(t *testing.T) {
	check := func(name string, spec serve.Spec, rows []int) {
		fx := fixture(t, spec)
		for _, i := range rows {
			var site *fault.Site
			label := "golden"
			if i >= 0 {
				site = &fx.c.Sites[i]
				label = fmt.Sprintf("site %d", i)
			}
			for _, strides := range strideSets {
				t.Run(fmt.Sprintf("%s/%s/strides%v", name, label, strides), func(t *testing.T) {
					fx.run(t, site, strides)
				})
			}
		}
	}
	for _, st := range []string{"plain", "cache", "tcm"} {
		for _, mc := range []bool{false, true} {
			spec := forwardingSpec(st, mc)
			check(specName(spec), spec, benchRows(t, spec))
		}
	}

	trans := serve.Spec{Routine: "forwarding", Strategy: "cache", Multicore: true, BitStep: 8, Faults: "transition"}
	check(specName(trans), trans, []int{len(fixture(t, trans).c.Sites) / 2})

	for _, spec := range []serve.Spec{
		{Routine: "icu", Strategy: "plain", Multicore: true, BitStep: 8, Faults: "stuckat"},
		// Core B's golden run matures its recognition countdown in an
		// IF stall.
		{Routine: "icu", Core: 1, Strategy: "plain", BitStep: 8, Faults: "stuckat"},
		{Routine: "icu", Strategy: "tcm", BitStep: 8, Faults: "stuckat"},
		{Routine: "hdcu", Strategy: "cache", Multicore: true, BitStep: 8, Faults: "stuckat"},
	} {
		// The golden run and one site of each signal class: the event
		// lines and counter increments keep the skip off, the rest leave
		// it on.
		rows := []int{-1}
		seen := map[fault.Signal]bool{}
		for i, s := range fixture(t, spec).c.Sites {
			if !seen[s.Signal] {
				seen[s.Signal] = true
				rows = append(rows, i)
			}
		}
		check(specName(spec), spec, rows)
	}

	t.Run("recording", func(t *testing.T) {
		var jobs [soc.NumCores]*core.CoreJob
		for id := range jobs {
			r, err := sbst.NewRoutineByName("forwarding", sbst.RoutineOptions{
				DataBase: mem.SRAMBase + 0x2000*uint32(id+1), CoreID: id, TriggerReps: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs[id] = &core.CoreJob{Routine: r, Strategy: core.Plain{}, CodeBase: soc.CodeLow + uint32(id)*0x10000}
		}
		cfg := soc.DefaultConfig()
		const budget = 1 << 20
		results, _, err := core.RunJobs(cfg, jobs, budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, strides := range strideSets {
			var socs [2]*soc.SoC
			var recs [2]*bus.Recorder
			for k := range socs {
				s, err := core.LoadJobs(cfg, jobs, func(s *soc.SoC) { recs[k] = s.AttachRecorder(0) })
				if err != nil {
					t.Fatal(err)
				}
				s.SealBaseline()
				socs[k] = s
			}
			compareAdvance(t, socs[0], socs[1], budget, strides, []int{0, 1, 2})
			if !socs[1].Done() {
				t.Fatalf("strides %v: the recording did not drain", strides)
			}
			if !reflect.DeepEqual(recs[0].EventsByMaster(), recs[1].EventsByMaster()) {
				t.Fatalf("strides %v: the recorded traffic differs", strides)
			}
			for id, r := range results {
				if got := core.ResultOf(socs[0], id); got != *r {
					t.Fatalf("core %d: RunJobs gives %+v, Step %+v", id, *r, got)
				}
			}
		}
	})
}

// fuzzSpec maps FuzzAdvance's spec choice onto a spec at bitstep 8:
// routine, core and strategy taken modulo their ranges, transition faults
// only on the forwarding routine, which alone has them.
func fuzzSpec(routine, coreID, strategy uint8, multicore, transition bool) serve.Spec {
	spec := serve.Spec{
		Routine:   []string{"forwarding", "hdcu", "icu"}[routine%3],
		Core:      int(coreID % soc.NumCores),
		Strategy:  []string{"plain", "cache", "tcm"}[strategy%3],
		Multicore: multicore,
		BitStep:   8,
		Faults:    "stuckat",
	}
	if transition && spec.Routine == "forwarding" {
		spec.Faults = "transition"
	}
	return spec
}

// FuzzAdvance differentially checks SoC.Advance against Step over the
// spec, site and limit strides the input picks: two SoCs from one capture
// image run the same fault run, one by Step, one by Advance with each
// limit the next stride past its cycle, and compareAdvance requires equal
// core state, counters and bus statistics after every Advance, and equal
// snapshots, utilization and RunResult at the end. site 0 is the golden
// run, k > 0 the site (k-1) modulo the universe. The seeds are
// BenchmarkSoCStep's golden, mux-data and budget rows under the budget
// alone and under short strides; they run under plain `go test`.
func FuzzAdvance(f *testing.F) {
	for st := range uint8(3) {
		spec := fuzzSpec(0, 0, st, true, false)
		for _, row := range benchRows(f, spec) {
			f.Add(uint8(0), uint8(0), st, true, false, uint16(row+1), []byte(nil))
			f.Add(uint8(0), uint8(0), st, true, false, uint16(row+1), []byte{1, 2, 5, 0, 3})
		}
	}
	f.Fuzz(func(t *testing.T, routine, coreID, strategy uint8, multicore, transition bool, site uint16, strides []byte) {
		spec := fuzzSpec(routine, coreID, strategy, multicore, transition)
		fx := fixture(t, spec)
		var s *fault.Site
		if site > 0 {
			s = &fx.c.Sites[int(site-1)%len(fx.c.Sites)]
		}
		fx.run(t, s, strides)
	})
}
