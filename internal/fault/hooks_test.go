package fault

import (
	"reflect"
	"testing"
)

// TestHooksCoverEveryTransform is the hook-set oracle: for every site of
// every shipped universe, for composites over disjoint sites, and for the
// fault-free plane and the probe, each hook class outside Hooks(p) is the
// identity over probeHooks' sweep. The core and the ICU skip exactly those
// hook calls, so a set that missed a class a plane can transform would
// silently drop that fault.
func TestHooksCoverEveryTransform(t *testing.T) {
	type planeCase struct {
		name  string
		build func() Plane // a fresh plane per sweep: Transition is stateful
	}
	var cases []planeCase
	for _, bits := range []int{32, 64} {
		o := DefaultOptions(bits)
		for _, u := range []struct {
			name  string
			sites []Site
		}{
			{"fwd", ForwardingLogic(o)},
			{"transition", TransitionFaults(o)},
			{"hdcu", HDCU(o)},
			{"perf", PerfCounters(o)},
			{"icu", ICU(o)},
		} {
			for _, s := range u.sites {
				cases = append(cases, planeCase{s.String(), func() Plane { return PlaneFor(s) }})
			}
		}
	}
	sites := disjointSites()
	cases = append(cases,
		planeCase{"composite(disjoint)", func() Plane { return CompositeFor(sites) }},
		planeCase{"composite(empty)", func() Plane { return NewComposite() }},
		planeCase{"None", func() Plane { return None }},
		planeCase{"probe", func() Plane { return NewProbe(func() int64 { return 0 }) }},
	)
	for i := range sites {
		pair := []Site{sites[i], sites[(i+1)%len(sites)]}
		cases = append(cases, planeCase{"composite(pair)", func() Plane { return CompositeFor(pair) }})
	}
	if len(cases) < 1000 {
		t.Fatalf("only %d planes; the universes shrank", len(cases))
	}
	identity := map[Signal][]uint64{}
	for sig := SigMuxData; sig <= SigCntInc; sig++ {
		identity[sig] = probeClass(None, sig)
	}
	for _, c := range cases {
		h := Hooks(c.build())
		for sig := SigMuxData; sig <= SigCntInc; sig++ {
			if h.Has(sig) {
				continue
			}
			if got := probeClass(c.build(), sig); !reflect.DeepEqual(got, identity[sig]) {
				t.Errorf("%s: hook set %011b omits %v, which the plane transforms", c.name, h, sig)
			}
		}
	}
}

// TestHooksSets pins the sets themselves: None's is empty, the probe's and
// an unknown plane type's are full, a site's is its signal class, and a
// composite's is the union of its parts, in any order.
func TestHooksSets(t *testing.T) {
	if h := Hooks(None); h != 0 {
		t.Errorf("Hooks(None) = %011b, want empty", h)
	}
	if h := Hooks(NewProbe(func() int64 { return 0 })); h != AllHooks {
		t.Errorf("Hooks(probe) = %011b, want every class", h)
	}
	type unknown struct{ noFault }
	if h := Hooks(unknown{}); h != AllHooks {
		t.Errorf("Hooks(unknown plane) = %011b, want every class", h)
	}
	fwd := Site{Unit: UnitFwd, Signal: SigMuxData, Path: PathEXL0, Bit: 1, Stuck: 1}
	ev := Site{Unit: UnitICU, Signal: SigEvLine, Path: 0, Stuck: 1}
	inc := Site{Unit: UnitPerf, Signal: SigCntInc, Lane: 1, Stuck: 0}
	slow := Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowRise, Path: PathEXL1, Bit: 2}
	const (
		muxData = HookSet(1) << SigMuxData
		evLine  = HookSet(1) << SigEvLine
		cntInc  = HookSet(1) << SigCntInc
	)
	for _, tc := range []struct {
		group []Site
		want  HookSet
	}{
		{[]Site{fwd}, muxData},
		{[]Site{slow}, muxData},
		{[]Site{fwd, fwd}, muxData},
		{[]Site{fwd, ev}, muxData | evLine},
		{[]Site{ev, fwd}, muxData | evLine},
		{[]Site{fwd, inc}, muxData | cntInc},
		{[]Site{ev, inc}, evLine | cntInc},
		{[]Site{slow, ev, inc}, muxData | evLine | cntInc},
	} {
		if got := Hooks(CompositeFor(tc.group)); got != tc.want {
			t.Errorf("Hooks(%v) = %011b, want %011b", tc.group, got, tc.want)
		}
	}
	if h := Hooks(NewComposite()); h != 0 {
		t.Errorf("Hooks(empty composite) = %011b, want empty", h)
	}
	if h := Hooks(NewComposite(None, NewProbe(func() int64 { return 0 }))); h != AllHooks {
		t.Errorf("Hooks(None∘probe) = %011b, want every class", h)
	}
}
