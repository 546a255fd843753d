package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/soc"
)

// shadowPlane is the brute-force activation oracle: an identity plane that
// evaluates every site's own fault plane beside one golden run and records,
// per site, the cycle of the first hook call whose output under that plane
// differs from the identity output. Sites are bucketed by the hooked line
// they sit on, so a call evaluates only the planes that can react to it,
// and a site leaves its bucket once it activates. Being a plane type the
// fault package does not know, it makes the ICU poll its event lines and
// the counters consult the increment gate on every call.
type shadowPlane struct {
	now     func() int64
	planes  []fault.Plane
	first   []int64 // -1 until the site activates
	buckets map[fault.Site][]int
}

// lineOf reduces a site to the hooked line it sits on.
func lineOf(s fault.Site) fault.Site {
	return fault.Site{Unit: s.Unit, Signal: s.Signal, Lane: s.Lane, Operand: s.Operand, Path: s.Path}
}

func newShadowPlane(sites []fault.Site, now func() int64) *shadowPlane {
	sh := &shadowPlane{now: now, buckets: map[fault.Site][]int{}}
	for i, s := range sites {
		sh.planes = append(sh.planes, fault.PlaneFor(s))
		sh.first = append(sh.first, -1)
		sh.buckets[lineOf(s)] = append(sh.buckets[lineOf(s)], i)
	}
	return sh
}

// visit evaluates every live site on line with differs, which reports
// whether that site's plane changes the current call's output.
func (sh *shadowPlane) visit(line fault.Site, differs func(fault.Plane) bool) {
	live := sh.buckets[line][:0]
	for _, i := range sh.buckets[line] {
		if differs(sh.planes[i]) {
			sh.first[i] = sh.now()
		} else {
			live = append(live, i)
		}
	}
	sh.buckets[line] = live
}

func (sh *shadowPlane) MuxData(lane, operand, path uint8, v uint64) uint64 {
	sh.visit(fault.Site{Unit: fault.UnitFwd, Signal: fault.SigMuxData, Lane: lane, Operand: operand, Path: path},
		func(p fault.Plane) bool { return p.MuxData(lane, operand, path, v) != v })
	return v
}

func (sh *shadowPlane) MuxSel(lane, operand, sel uint8) uint8 {
	sh.visit(fault.Site{Unit: fault.UnitFwd, Signal: fault.SigMuxSel, Lane: lane, Operand: operand},
		func(p fault.Plane) bool { return p.MuxSel(lane, operand, sel) != sel })
	return sel
}

func (sh *shadowPlane) CmpEq(cmpID uint8, a, b uint8) bool {
	sh.visit(fault.Site{Unit: fault.UnitHDCU, Signal: fault.SigCmp, Path: cmpID},
		func(p fault.Plane) bool { return p.CmpEq(cmpID, a, b) != (a == b) })
	return a == b
}

func (sh *shadowPlane) Ctl(line uint8, v bool) bool {
	sh.visit(fault.Site{Unit: fault.UnitHDCU, Signal: fault.SigCtl, Path: line},
		func(p fault.Plane) bool { return p.Ctl(line, v) != v })
	return v
}

func (sh *shadowPlane) EvLine(line uint8, v bool) bool {
	sh.visit(fault.Site{Unit: fault.UnitICU, Signal: fault.SigEvLine, Path: line},
		func(p fault.Plane) bool { return p.EvLine(line, v) != v })
	return v
}

func (sh *shadowPlane) Cause(v uint32) uint32 {
	sh.visit(fault.Site{Unit: fault.UnitICU, Signal: fault.SigCause},
		func(p fault.Plane) bool { return p.Cause(v) != v })
	return v
}

func (sh *shadowPlane) Dist(v uint32) uint32 {
	sh.visit(fault.Site{Unit: fault.UnitICU, Signal: fault.SigDist},
		func(p fault.Plane) bool { return p.Dist(v) != v })
	return v
}

func (sh *shadowPlane) Enable(v uint32) uint32 {
	sh.visit(fault.Site{Unit: fault.UnitICU, Signal: fault.SigEnable},
		func(p fault.Plane) bool { return p.Enable(v) != v })
	return v
}

func (sh *shadowPlane) EPC(v uint32) uint32 {
	sh.visit(fault.Site{Unit: fault.UnitICU, Signal: fault.SigEPC},
		func(p fault.Plane) bool { return p.EPC(v) != v })
	return v
}

func (sh *shadowPlane) CounterRead(id uint8, v uint32) uint32 {
	sh.visit(fault.Site{Unit: fault.UnitPerf, Signal: fault.SigCntBit, Lane: id},
		func(p fault.Plane) bool { return p.CounterRead(id, v) != v })
	return v
}

func (sh *shadowPlane) CounterInc(id uint8, inc bool) bool {
	sh.visit(fault.Site{Unit: fault.UnitPerf, Signal: fault.SigCntInc, Lane: id},
		func(p fault.Plane) bool { return p.CounterInc(id, inc) != inc })
	return inc
}

// goldenWith runs the campaign's golden on a fresh SoC of its replay
// environment with plane p on the core under test, as an arena's capture
// run does, and fails the test unless it completes cleanly. sys is set to
// the SoC before the run starts, so p can read its clock.
func goldenWith(t *testing.T, c *Campaign, p fault.Plane, sys **soc.SoC) {
	t.Helper()
	cfg := c.Cfg
	cfg.Cores[c.Core].Plane = p
	var jobs [soc.NumCores]*core.CoreJob
	jobs[c.Core] = c.Job
	res, _, err := core.RunJobsSetup(cfg, jobs, c.Budget, func(s *soc.SoC) { *sys = s })
	if err != nil {
		t.Fatalf("%+v: %v", c.Spec, err)
	}
	if r := res[c.Core]; r == nil || !r.OK {
		t.Fatalf("%+v: golden run under %T did not complete", c.Spec, p)
	}
}

// TestProbeFirstActivationMatchesShadow pins the capture probe against the
// brute-force shadow oracle: for every site of the shipped universes
// (forwarding, HDCU+perf and ICU stuck-at, forwarding transition), on every
// core, under the plain, cache and TCM strategies with 1 and 3 active
// cores, the probe's FirstActivation must equal the cycle at which the
// site's own plane first changes a hook's output in the golden run (-1 for
// never). The probe runs as the core's plane exactly as in an arena's
// capture, so the core and the ICU call it only on the hook classes in
// its fault.Hooks set: a probe whose set lacked a class would miss the
// calls of that class the shadow (an unknown plane type, so called on
// every hook) sees.
func TestProbeFirstActivationMatchesShadow(t *testing.T) {
	var specs []Spec
	for _, faults := range []string{"stuckat", "transition"} {
		for _, routine := range []string{"forwarding", "hdcu", "icu"} {
			if faults == "transition" && routine != "forwarding" {
				continue
			}
			for _, strategy := range []string{"plain", "cache", "tcm"} {
				for _, multicore := range []bool{false, true} {
					for id := 0; id < soc.NumCores; id++ {
						specs = append(specs, Spec{Routine: routine, Core: id, Strategy: strategy,
							Multicore: multicore, Faults: faults})
					}
				}
			}
		}
	}
	sites, activating, mismatches := 0, 0, 0
	for _, spec := range specs {
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		var sys *soc.SoC
		now := func() int64 { return sys.Cycle() }
		probe := fault.NewProbe(now)
		goldenWith(t, c, probe, &sys)
		shadow := newShadowPlane(c.Sites, now)
		goldenWith(t, c, shadow, &sys)

		for i, s := range c.Sites {
			sites++
			want := shadow.first[i]
			if want >= 0 {
				activating++
			}
			if got := probe.FirstActivation(s); got != want {
				if mismatches++; mismatches <= 20 {
					t.Errorf("%+v %v: probe FirstActivation %d, shadow %d", c.Spec, s, got, want)
				}
			}
		}
	}
	if mismatches > 0 {
		t.Errorf("%d of %d sites mismatched", mismatches, sites)
	}
	if activating == 0 || activating == sites {
		t.Errorf("%d of %d sites activate: the oracle saw no contrast", activating, sites)
	}
	t.Logf("%d specs, %d sites, %d activate in the golden run", len(specs), sites, activating)
}
