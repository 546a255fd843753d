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
	p := NewMuxProbe(func() int64 { return now })

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
	p := NewMuxProbe(func() int64 { return 0 })
	stuck := Site{Unit: UnitHDCU, Signal: SigCtl, Kind: KindStuckAt, Path: 1}
	if got := p.FirstActivation(stuck); got != 0 {
		t.Errorf("FirstActivation(stuck-at) = %d, want 0 (always live)", got)
	}
	// A Transition for a site its MuxData guard filters never injects.
	foreign := Site{Unit: UnitICU, Signal: SigEvLine, Kind: KindSlowRise, Path: 1}
	if got := p.FirstActivation(foreign); got != -1 {
		t.Errorf("FirstActivation(foreign transition) = %d, want -1", got)
	}
}

func TestMuxProbeHistorySeeding(t *testing.T) {
	now := int64(5)
	p := NewMuxProbe(func() int64 { return now })
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
