package fault

import (
	"reflect"
	"testing"
)

// probeHooks drives every Plane hook over a deterministic input sweep and
// returns the concatenated outputs: two planes with equal probe vectors
// are behaviourally identical on the sweep. Stateful planes (Transition
// parts) are mutated by the sweep, so callers build a fresh plane per
// probe.
func probeHooks(p Plane) []uint64 {
	var out []uint64
	for sig := SigMuxData; sig <= SigCntInc; sig++ {
		out = append(out, probeClass(p, sig)...)
	}
	return out
}

// probeClass is probeHooks' sweep of the one hook that carries signal
// class sig.
func probeClass(p Plane, sig Signal) []uint64 {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	var out []uint64
	switch sig {
	case SigMuxData, SigMuxSel:
		for lane := uint8(0); lane < 2; lane++ {
			for op := uint8(0); op < 2; op++ {
				for path := uint8(0); path < NumPaths; path++ {
					if sig == SigMuxData {
						for _, v := range []uint64{0, ^uint64(0), 0xAAAA5555_33CC0FF0, 1 << 63, 1} {
							out = append(out, p.MuxData(lane, op, path, v))
						}
						continue
					}
					for sel := uint8(0); sel < 1<<SelBits; sel++ {
						out = append(out, uint64(p.MuxSel(lane, op, sel)))
					}
				}
			}
		}
	case SigCmp:
		for id := uint8(0); id < NumCmp; id++ {
			for a := uint8(0); a < 8; a++ {
				for b := uint8(0); b < 8; b++ {
					out = append(out, b2u(p.CmpEq(id, a, b)))
				}
			}
		}
	case SigCtl, SigEvLine:
		for line := uint8(0); line < 8; line++ {
			if sig == SigCtl {
				out = append(out, b2u(p.Ctl(line, false)), b2u(p.Ctl(line, true)))
			} else {
				out = append(out, b2u(p.EvLine(line, false)), b2u(p.EvLine(line, true)))
			}
		}
	case SigCause, SigDist, SigEnable, SigEPC:
		hook := map[Signal]func(uint32) uint32{
			SigCause: p.Cause, SigDist: p.Dist, SigEnable: p.Enable, SigEPC: p.EPC,
		}[sig]
		for _, v := range []uint32{0, ^uint32(0), 0xDEADBEEF, 0x00FF00FF} {
			out = append(out, uint64(hook(v)))
		}
	case SigCntBit, SigCntInc:
		for id := uint8(0); id < NumCounters; id++ {
			if sig == SigCntBit {
				for _, v := range []uint32{0, ^uint32(0), 0x12345678} {
					out = append(out, uint64(p.CounterRead(id, v)))
				}
				continue
			}
			out = append(out, b2u(p.CounterInc(id, false)), b2u(p.CounterInc(id, true)))
		}
	}
	return out
}

// disjointSites is a cross-unit selection of mutually disjoint fault sites
// (no two share a guarded signal coordinate and bit): every plane hook has
// at least one non-transparent component among them.
func disjointSites() []Site {
	return []Site{
		{Unit: UnitFwd, Signal: SigMuxData, Lane: 0, Operand: 0, Path: PathEXL0, Bit: 3, Stuck: 1},
		// Same mux line as above, different bit: forceBit on distinct bits
		// must still commute.
		{Unit: UnitFwd, Signal: SigMuxData, Lane: 0, Operand: 0, Path: PathEXL0, Bit: 7, Stuck: 0},
		{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowRise, Lane: 1, Operand: 1, Path: PathEXL1, Bit: 5},
		{Unit: UnitFwd, Signal: SigMuxSel, Lane: 1, Operand: 0, Bit: 1, Stuck: 1},
		{Unit: UnitHDCU, Signal: SigCmp, Path: 2, Bit: 0, Stuck: 0},
		{Unit: UnitHDCU, Signal: SigCtl, Path: CtlLoadUse, Stuck: 1},
		{Unit: UnitICU, Signal: SigEvLine, Path: 1, Stuck: 1},
		{Unit: UnitICU, Signal: SigCause, Bit: 4, Stuck: 0},
		{Unit: UnitICU, Signal: SigEnable, Bit: 2, Stuck: 1},
		{Unit: UnitPerf, Signal: SigCntBit, Lane: 2, Bit: 5, Stuck: 1},
		{Unit: UnitPerf, Signal: SigCntInc, Lane: 0, Stuck: 0},
	}
}

// TestCompositeDisjointOrderIndependent: composing disjoint sites in any
// order yields a behaviourally identical plane.
func TestCompositeDisjointOrderIndependent(t *testing.T) {
	sites := disjointSites()
	want := probeHooks(CompositeFor(sites))
	orders := [][]int{}
	// A reversal plus a few deterministic rotations of the site list.
	rev := make([]int, len(sites))
	for i := range rev {
		rev[i] = len(sites) - 1 - i
	}
	orders = append(orders, rev)
	for rot := 1; rot < len(sites); rot += 3 {
		ord := make([]int, len(sites))
		for i := range ord {
			ord[i] = (i + rot) % len(sites)
		}
		orders = append(orders, ord)
	}
	for _, ord := range orders {
		perm := make([]Site, len(sites))
		for i, j := range ord {
			perm[i] = sites[j]
		}
		if got := probeHooks(CompositeFor(perm)); !reflect.DeepEqual(got, want) {
			t.Fatalf("composite of disjoint sites is order-dependent (order %v)", ord)
		}
	}
}

// TestCompositeIdentityNoOp: composing any site with the fault-free plane
// (on either side) behaves exactly like the site alone.
func TestCompositeIdentityNoOp(t *testing.T) {
	for _, s := range disjointSites() {
		want := probeHooks(PlaneFor(s))
		if got := probeHooks(NewComposite(None, PlaneFor(s))); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: None∘site differs from site", s)
		}
		if got := probeHooks(NewComposite(PlaneFor(s), None)); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: site∘None differs from site", s)
		}
	}
}

// TestCompositeSelfEqualsSingle: a composite of a stuck-at site with
// itself behaves exactly like the single site (forcing a bit twice is
// forcing it once).
func TestCompositeSelfEqualsSingle(t *testing.T) {
	for _, s := range disjointSites() {
		if s.Kind != KindStuckAt {
			continue // transition self-composition is not idempotent by model
		}
		want := probeHooks(NewSingle(s))
		if got := probeHooks(CompositeFor([]Site{s, s})); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: site∘site differs from single site", s)
		}
	}
}

// TestCompositeResetAndFlatten: ResetState clears every stateful
// component's edge history, and nested composites flatten.
func TestCompositeResetAndFlatten(t *testing.T) {
	tr := NewTransition(Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowFall, Path: PathEXL1, Bit: 2})
	c := NewComposite(NewSingle(disjointSites()[0]), NewComposite(tr, None))
	if len(c.Parts) != 3 {
		t.Fatalf("nested composite not flattened: %d parts", len(c.Parts))
	}
	tr.MuxData(0, 0, PathEXL1, ^uint64(0))
	if _, seen := tr.History(); !seen {
		t.Fatal("transition part recorded no history; test is vacuous")
	}
	ResetPlaneState(c)
	if _, seen := tr.History(); seen {
		t.Error("ResetPlaneState(composite) left stale edge history on a component")
	}
}
