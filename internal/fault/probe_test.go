package fault

import "testing"

// A Transition built for a non-forwarding site must stay transparent on the
// forwarding data lines, exactly like Single.MuxData does for its sites —
// otherwise an HDCU or ICU transition site would corrupt mux traffic it was
// never meant to touch.
func TestTransitionIgnoresNonForwardingSite(t *testing.T) {
	foreign := []Site{
		{Unit: UnitHDCU, Signal: SigMuxData, Kind: KindSlowRise, Path: PathEXL0, Bit: 4},
		{Unit: UnitFwd, Signal: SigMuxSel, Kind: KindSlowRise, Path: PathEXL0, Bit: 4},
		{Unit: UnitICU, Signal: SigEvLine, Kind: KindSlowFall, Path: 1, Bit: 0},
	}
	for _, s := range foreign {
		f := NewTransition(s)
		// Drive the exact edge pattern that would trigger the fault on a
		// matching forwarding site: 0 then 1 (rise), then 1 then 0 (fall).
		for _, v := range []uint64{0, 1 << s.Bit, 1 << s.Bit, 0} {
			if got := f.MuxData(s.Lane, s.Operand, s.Path, v); got != v {
				t.Errorf("site %v corrupted mux data: sent %#x, got %#x", s, v, got)
			}
		}
	}

	// Control: the same edge pattern on a matching forwarding site does
	// delay the rise, proving the pattern above is an activating one.
	s := Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowRise, Path: PathEXL0, Bit: 4}
	f := NewTransition(s)
	f.MuxData(s.Lane, s.Operand, s.Path, 0)
	if got := f.MuxData(s.Lane, s.Operand, s.Path, 1<<4); got != 0 {
		t.Errorf("forwarding control site did not inject: got %#x, want 0", got)
	}
}

func TestTransitionHistoryRoundTrip(t *testing.T) {
	s := Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowFall, Path: PathMEML0, Bit: 1}
	f := NewTransition(s)
	if prev, seen := f.History(); prev != 0 || seen {
		t.Fatalf("fresh plane history = (%#x, %v), want (0, false)", prev, seen)
	}
	f.MuxData(s.Lane, s.Operand, s.Path, 0xAB)
	if prev, seen := f.History(); prev != 0xAB || !seen {
		t.Fatalf("history after one use = (%#x, %v), want (0xAB, true)", prev, seen)
	}
	f.ResetState()
	if prev, seen := f.History(); prev != 0 || seen {
		t.Fatalf("history after ResetState = (%#x, %v), want (0, false)", prev, seen)
	}
	f.SeedHistory(0x2, true)
	// Seeded history drives the next edge decision: 1 -> 0 on bit 1 is a
	// fall, so the slow-fall fault holds the stale 1.
	if got := f.MuxData(s.Lane, s.Operand, s.Path, 0); got != 0x2 {
		t.Errorf("seeded slow fall not modelled: got %#x, want 0x2", got)
	}
}

func TestMuxProbeActivationCycles(t *testing.T) {
	now := int64(0)
	p := NewProbe(func() int64 { return now })

	// Line (0,0,PathEXL0): 0 @10, 1 @20 (rise), 1 @30, 0 @40 (fall),
	// 1 @50 (rise), 0 @60 (fall). First use records no edge.
	drive := func(cycle int64, v uint64) {
		now = cycle
		if got := p.MuxData(0, 0, PathEXL0, v); got != v {
			t.Fatalf("probe modified value at cycle %d: %#x -> %#x", cycle, v, got)
		}
	}
	drive(10, 0)
	drive(20, 1)
	drive(30, 1)
	drive(40, 0)
	drive(50, 1)
	drive(60, 0)

	rise := Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowRise, Path: PathEXL0, Bit: 0}
	fall := rise
	fall.Kind = KindSlowFall
	if got := p.FirstActivation(rise); got != 20 {
		t.Errorf("FirstActivation(rise) = %d, want 20", got)
	}
	if got := p.FirstActivation(fall); got != 40 {
		t.Errorf("FirstActivation(fall) = %d, want 40", got)
	}

	// A bit that never toggles on this line never activates.
	idle := rise
	idle.Bit = 7
	if got := p.FirstActivation(idle); got != -1 {
		t.Errorf("FirstActivation(idle bit) = %d, want -1", got)
	}
	// Untouched lines never activate either.
	other := rise
	other.Path = PathMEML1
	if got := p.FirstActivation(other); got != -1 {
		t.Errorf("FirstActivation(untouched line) = %d, want -1", got)
	}
}

func TestMuxProbeSiteConventions(t *testing.T) {
	p := NewProbe(func() int64 { return 9 })
	p.Ctl(CtlSplit, false)

	// A stuck-at site is live from the first cycle the golden run drives
	// its line to the activating value, and never live when it never does.
	sa1 := Site{Unit: UnitHDCU, Signal: SigCtl, Kind: KindStuckAt, Path: CtlSplit, Stuck: 1}
	if got := p.FirstActivation(sa1); got != 9 {
		t.Errorf("FirstActivation(SA1 on a line seen false) = %d, want 9", got)
	}
	sa0 := sa1
	sa0.Stuck = 0
	if got := p.FirstActivation(sa0); got != -1 {
		t.Errorf("FirstActivation(SA0 on a line never seen true) = %d, want -1", got)
	}
	untouched := Site{Unit: UnitHDCU, Signal: SigCtl, Kind: KindStuckAt, Path: CtlLoadUse, Stuck: 1}
	if got := p.FirstActivation(untouched); got != -1 {
		t.Errorf("FirstActivation(stuck-at on an untouched line) = %d, want -1", got)
	}
	// A site the probe does not model is conservatively live from cycle 0.
	for _, s := range []Site{
		{Unit: UnitHDCU, Signal: SigCtl, Path: NumCtl, Stuck: 1},
		{Unit: UnitHDCU, Signal: SigCmp, Path: 3, Bit: CmpBits},
		{Unit: UnitFwd, Signal: SigMuxSel, Lane: 1, Bit: SelBits},
		{Unit: UnitPerf, Signal: SigCntBit, Lane: NumCounters, Bit: 2},
		{Unit: UnitICU, Signal: SigMuxData, Path: PathEXL0},
	} {
		if got := p.FirstActivation(s); got != 0 {
			t.Errorf("FirstActivation(%v) = %d, want 0 (not modelled)", s, got)
		}
	}
	// A Transition for a site its MuxData guard filters never injects.
	foreign := Site{Unit: UnitICU, Signal: SigEvLine, Kind: KindSlowRise, Path: 1}
	if got := p.FirstActivation(foreign); got != -1 {
		t.Errorf("FirstActivation(foreign transition) = %d, want -1", got)
	}
}

// TestProbeCmpEqStuckAtOne pins Single.CmpEq's rule for a stuck XNOR output
// bit: SA1 at bit b activates at the first unequal compare whose register
// indices differ in bit b alone, and SA0 at any bit at the first equal one.
func TestProbeCmpEqStuckAtOne(t *testing.T) {
	now := int64(0)
	p := NewProbe(func() int64 { return now })
	const cmp = 5
	for _, c := range []struct {
		cycle int64
		a, b  uint8
	}{
		{10, 6, 1},   // differs in three bits: no stuck bit decides it
		{20, 4, 5},   // differs in bit 0 only
		{30, 7, 7},   // equal
		{40, 16, 0},  // differs in bit 4 only
		{50, 5, 4},   // bit 0 again: the first sighting stands
		{60, 31, 31}, // equal again
	} {
		now = c.cycle
		if got := p.CmpEq(cmp, c.a, c.b); got != (c.a == c.b) {
			t.Fatalf("probe changed compare (%d, %d) to %v", c.a, c.b, got)
		}
	}
	for bit, want := range [CmpBits]int64{20, -1, -1, -1, 40} {
		s := Site{Unit: UnitHDCU, Signal: SigCmp, Path: cmp, Bit: uint8(bit), Stuck: 1}
		if got := p.FirstActivation(s); got != want {
			t.Errorf("SA1 bit %d: FirstActivation = %d, want %d", bit, got, want)
		}
		s.Stuck = 0
		if got := p.FirstActivation(s); got != 30 {
			t.Errorf("SA0 bit %d: FirstActivation = %d, want 30", bit, got)
		}
	}
}

// TestProbeCounterIncStuckAtOneNeverActivates: the pipeline only ever asks
// the increment gate about an increment it wants, so a gate stuck at 1
// never changes the hook's output, while one stuck at 0 does at the first
// increment.
func TestProbeCounterIncStuckAtOneNeverActivates(t *testing.T) {
	now := int64(0)
	p := NewProbe(func() int64 { return now })
	for now = 3; now < 100; now++ {
		p.CounterInc(CntIFStall, true)
	}
	s := Site{Unit: UnitPerf, Signal: SigCntInc, Lane: CntIFStall, Stuck: 1}
	if got := p.FirstActivation(s); got != -1 {
		t.Errorf("CounterInc SA1: FirstActivation = %d, want -1", got)
	}
	s.Stuck = 0
	if got := p.FirstActivation(s); got != 3 {
		t.Errorf("CounterInc SA0: FirstActivation = %d, want 3", got)
	}
}

// TestProbeOneCallMatchesSingle drives one hook call into a fresh probe and
// requires, for every stuck-at site of the shipped universes, that the probe
// reports activation at that call exactly when the site's own Single plane
// would change the call's output.
func TestProbeOneCallMatchesSingle(t *testing.T) {
	sites := ForwardingLogic(DefaultOptions(64))
	sites = append(sites, HDCU(DefaultOptions(32))...)
	sites = append(sites, ICU(DefaultOptions(32))...)
	sites = append(sites, PerfCounters(DefaultOptions(32))...)

	calls := []func(Plane) any{
		func(p Plane) any { return p.MuxData(1, 0, PathCascade, 0x8000_0001_0000_00F0) },
		func(p Plane) any { return p.MuxData(0, 1, PathMEML0, 0) },
		func(p Plane) any { return p.MuxSel(1, 1, PathMEML1) },
		func(p Plane) any { return p.Ctl(CtlLoadUse, true) },
		func(p Plane) any { return p.Ctl(CtlSplit, false) },
		func(p Plane) any { return p.EvLine(EvDivZero, false) },
		func(p Plane) any { return p.EvLine(EvOverflowMul, true) },
		func(p Plane) any { return p.Cause(0b0101) },
		func(p Plane) any { return p.Dist(0x3C) },
		func(p Plane) any { return p.Enable(0xF) },
		func(p Plane) any { return p.EPC(0x0001_0024) },
		func(p Plane) any { return p.CounterRead(CntHazStall, 0x8421) },
		func(p Plane) any { return p.CounterInc(CntIssued2, true) },
	}
	for a := uint8(0); a < 32; a++ {
		for b := uint8(0); b < 32; b++ {
			calls = append(calls, func(p Plane) any { return p.CmpEq(CmpLoadUse(1, 0, 1), a, b) })
		}
	}
	for i, call := range calls {
		p := NewProbe(func() int64 { return 7 })
		if got, want := call(p), call(None); got != want {
			t.Fatalf("call %d: probe output %v, identity %v", i, got, want)
		}
		for _, s := range sites {
			want := int64(-1)
			if call(NewSingle(s)) != call(None) {
				want = 7
			}
			if got := p.FirstActivation(s); got != want {
				t.Errorf("call %d, %v: FirstActivation = %d, want %d", i, s, got, want)
			}
		}
	}
}

func TestMuxProbeHistorySeeding(t *testing.T) {
	now := int64(5)
	p := NewProbe(func() int64 { return now })
	p.MuxData(1, 0, PathEXL1, 0x30)
	h := p.History()

	used := Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowFall,
		Lane: 1, Operand: 0, Path: PathEXL1, Bit: 4}
	if prev, seen := h.For(used); prev != 0x30 || !seen {
		t.Errorf("History.For(used line) = (%#x, %v), want (0x30, true)", prev, seen)
	}
	unused := used
	unused.Lane = 0
	if prev, seen := h.For(unused); prev != 0 || seen {
		t.Errorf("History.For(unused line) = (%#x, %v), want (0, false)", prev, seen)
	}

	// Seeding a fresh plane from the history reproduces the prefix's edge
	// decision: 0x30 -> 0x20 is a fall on bit 4, held by the slow-fall fault.
	f := NewTransition(used)
	f.SeedHistory(h.For(used))
	if got := f.MuxData(1, 0, PathEXL1, 0x20); got != 0x30 {
		t.Errorf("seeded plane: got %#x, want 0x30 (stale bit held)", got)
	}
	// History snapshots are point-in-time: later probe traffic must not
	// retroactively change h.
	now = 6
	p.MuxData(1, 0, PathEXL1, 0)
	if prev, seen := h.For(used); prev != 0x30 || !seen {
		t.Errorf("history mutated by later traffic: (%#x, %v)", prev, seen)
	}
}
