package fault

import (
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// simulateShared runs a campaign with one stateless runner shared by the
// given number of worker goroutines (<= 0 uses GOMAXPROCS).
func simulateShared(sites []Site, run RunFunc, workers int) Report {
	// Without a journal Simulate has no error to report.
	rep, _ := Simulate(sites, slices.Repeat([]RunFunc{run}, Workers(workers, len(sites))), SimOptions{})
	return rep
}

func TestNonePlaneIsIdentity(t *testing.T) {
	if v := None.MuxData(1, 0, PathEXL0, 0xDEAD); v != 0xDEAD {
		t.Error("MuxData")
	}
	if s := None.MuxSel(0, 1, 3); s != 3 {
		t.Error("MuxSel")
	}
	if !None.CmpEq(5, 7, 7) || None.CmpEq(5, 7, 8) {
		t.Error("CmpEq")
	}
	if !None.Ctl(CtlLoadUse, true) || None.Ctl(CtlSplit, false) {
		t.Error("Ctl")
	}
	if None.Cause(5) != 5 || None.Dist(9) != 9 || None.Enable(3) != 3 {
		t.Error("ICU hooks")
	}
	if None.CounterRead(1, 42) != 42 || !None.CounterInc(1, true) {
		t.Error("counter hooks")
	}
}

func TestSingleMuxDataFault(t *testing.T) {
	f := NewSingle(Site{Unit: UnitFwd, Signal: SigMuxData, Lane: 1, Operand: 0, Path: PathCascade, Bit: 7, Stuck: 1})
	if v := f.MuxData(1, 0, PathCascade, 0); v != 1<<7 {
		t.Errorf("sa1 not forced: %#x", v)
	}
	// Wrong lane/operand/path: masked.
	if v := f.MuxData(0, 0, PathCascade, 0); v != 0 {
		t.Error("fault leaked to other lane")
	}
	if v := f.MuxData(1, 1, PathCascade, 0); v != 0 {
		t.Error("fault leaked to other operand")
	}
	if v := f.MuxData(1, 0, PathEXL0, 0); v != 0 {
		t.Error("fault leaked to other path")
	}
	f0 := NewSingle(Site{Unit: UnitFwd, Signal: SigMuxData, Path: PathEXL1, Bit: 31, Stuck: 0})
	if v := f0.MuxData(0, 0, PathEXL1, 0xFFFFFFFF); v != 0x7FFFFFFF {
		t.Errorf("sa0 not forced: %#x", v)
	}
}

func TestSingleMuxSelFault(t *testing.T) {
	f := NewSingle(Site{Unit: UnitFwd, Signal: SigMuxSel, Lane: 0, Operand: 0, Bit: 1, Stuck: 1})
	if s := f.MuxSel(0, 0, 0); s != 2 {
		t.Errorf("sel = %d, want 2", s)
	}
	if s := f.MuxSel(1, 0, 0); s != 0 {
		t.Error("sel fault leaked")
	}
	// Select stays within the encoding width.
	f2 := NewSingle(Site{Unit: UnitFwd, Signal: SigMuxSel, Bit: 1, Stuck: 1})
	if s := f2.MuxSel(0, 0, 5); s != 7 {
		t.Errorf("sel = %d, want 7", s)
	}
}

func TestSingleCmpFault(t *testing.T) {
	// SA1 on bit 3: indices differing only in bit 3 compare equal.
	f := NewSingle(Site{Unit: UnitHDCU, Signal: SigCmp, Path: 5, Bit: 3, Stuck: 1})
	if !f.CmpEq(5, 2, 10) { // 2 ^ 10 = 8 = bit 3
		t.Error("sa1 comparator should see 2 == 10")
	}
	if f.CmpEq(5, 2, 3) {
		t.Error("unequal elsewhere must stay unequal")
	}
	if !f.CmpEq(5, 6, 6) {
		t.Error("true equality must survive sa1")
	}
	if !f.CmpEq(4, 6, 6) || f.CmpEq(4, 2, 10) {
		t.Error("fault leaked to other comparator")
	}
	// SA0: never equal.
	f0 := NewSingle(Site{Unit: UnitHDCU, Signal: SigCmp, Path: 5, Bit: 0, Stuck: 0})
	if f0.CmpEq(5, 6, 6) {
		t.Error("sa0 comparator should never match")
	}
}

func TestSingleCtlAndICUFaults(t *testing.T) {
	f := NewSingle(Site{Unit: UnitHDCU, Signal: SigCtl, Path: CtlLoadUse, Stuck: 0})
	if f.Ctl(CtlLoadUse, true) {
		t.Error("stall line stuck at 0 still asserted")
	}
	if !f.Ctl(CtlSplit, true) {
		t.Error("fault leaked to other line")
	}
	ev := NewSingle(Site{Unit: UnitICU, Signal: SigEvLine, Path: 2, Stuck: 1})
	if !ev.EvLine(2, false) {
		t.Error("event line stuck at 1 not raised")
	}
	if ev.EvLine(1, false) {
		t.Error("event fault leaked")
	}
	dist := NewSingle(Site{Unit: UnitICU, Signal: SigDist, Bit: 2, Stuck: 1})
	if dist.Dist(0) != 4 {
		t.Error("dist bit not forced")
	}
	cnt := NewSingle(Site{Unit: UnitPerf, Signal: SigCntInc, Lane: CntHazStall, Stuck: 0})
	if cnt.CounterInc(CntHazStall, true) {
		t.Error("counter increment not gated")
	}
	if !cnt.CounterInc(CntIFStall, true) {
		t.Error("counter fault leaked")
	}
}

func TestUniverseSizes(t *testing.T) {
	fwd32 := ForwardingLogic(DefaultOptions(32))
	fwd64 := ForwardingLogic(DefaultOptions(64))
	// Data sites: lane0 has 4 input paths, lane1 has 5 (cascade), 2
	// operands each, bits x 2 stuck values; plus 2x2 muxes x 3 select bits
	// x 2.
	wantData32 := (4 + 5) * 2 * 32 * 2
	wantSel := 2 * 2 * SelBits * 2
	if len(fwd32) != wantData32+wantSel {
		t.Errorf("32-bit forwarding universe = %d, want %d", len(fwd32), wantData32+wantSel)
	}
	if len(fwd64) != 2*wantData32+wantSel {
		t.Errorf("64-bit forwarding universe = %d, want %d", len(fwd64), 2*wantData32+wantSel)
	}
	if n := len(HDCU(DefaultOptions(32))); n == 0 {
		t.Error("empty HDCU universe")
	}
	if n := len(ICU(DefaultOptions(32))); n == 0 {
		t.Error("empty ICU universe")
	}
	if n := len(PerfCounters(DefaultOptions(32))); n == 0 {
		t.Error("empty counter universe")
	}
}

func TestUniverseUniqueSites(t *testing.T) {
	all := ForwardingLogic(DefaultOptions(64))
	all = append(all, HDCU(DefaultOptions(32))...)
	all = append(all, ICU(DefaultOptions(32))...)
	all = append(all, PerfCounters(DefaultOptions(32))...)
	seen := map[Site]bool{}
	for _, s := range all {
		if seen[s] {
			t.Fatalf("duplicate site %v", s)
		}
		seen[s] = true
	}
}

func TestUniverseBitStep(t *testing.T) {
	full := ForwardingLogic(DefaultOptions(32))
	quarter := ForwardingLogic(ListOptions{DataBits: 32, BitStep: 4})
	if len(quarter) >= len(full) {
		t.Error("BitStep did not reduce the universe")
	}
}

func TestSimulateSyntheticCampaign(t *testing.T) {
	sites := ForwardingLogic(ListOptions{DataBits: 32, BitStep: 8})
	// Synthetic runner: "detects" any fault on operand A of lane 0 by
	// perturbing the signature; everything else is silent.
	run := func(p Plane) (uint32, bool) {
		v := p.MuxData(0, 0, PathEXL0, 0x1234)
		v = p.MuxData(0, 0, PathEXL1, v)
		v = p.MuxData(0, 0, PathMEML0, v)
		v = p.MuxData(0, 0, PathMEML1, v)
		return uint32(v), true
	}
	rep := simulateShared(sites, run, 4)
	if rep.Golden != 0x1234 {
		t.Errorf("golden = %#x", rep.Golden)
	}
	wantDetected := 0
	for _, s := range sites {
		if s.Signal == SigMuxData && s.Lane == 0 && s.Operand == 0 &&
			// Stuck value must actually flip the bit of 0x1234.
			((s.Stuck == 1 && 0x1234&(1<<s.Bit) == 0) || (s.Stuck == 0 && 0x1234&(1<<s.Bit) != 0)) {
			wantDetected++
		}
	}
	if rep.Detected != wantDetected {
		t.Errorf("detected %d, want %d", rep.Detected, wantDetected)
	}
	if got := len(rep.Undetected()); got != rep.Total-rep.Detected {
		t.Errorf("undetected list %d", got)
	}
	by := rep.BySignal()
	for i := 1; i < len(by); i++ {
		if by[i].Signal <= by[i-1].Signal {
			t.Error("BySignal breakdown not ordered by signal")
		}
	}
	for _, st := range by {
		if st.Signal == SigMuxSel && st.Detected != 0 {
			t.Error("select faults cannot be detected by this runner")
		}
	}
}

// TestClaimMatchesCursor pins Simulate's Claim option: a claim fed from
// another goroutine, out of order and in bursts, settles the same
// verdicts as the default cursor.
func TestClaimMatchesCursor(t *testing.T) {
	sites := ForwardingLogic(ListOptions{DataBits: 32, BitStep: 8})
	// On the EXL0 path, stuck-at-1 faults of lane 1 operand B panic the
	// run, those of lane 0 operand B crash it, and lane 0 operand A
	// faults that flip a bit of 0x1234 change the signature.
	run := func(p Plane) (uint32, bool) {
		switch {
		case p.MuxData(1, 1, PathEXL0, 0) != 0:
			panic("synthetic simulator fault")
		case p.MuxData(0, 1, PathEXL0, 0) != 0:
			return 7, false
		}
		return uint32(p.MuxData(0, 0, PathEXL0, 0x1234)), true
	}
	runners := slices.Repeat([]RunFunc{run}, 4)
	want, err := Simulate(sites, runners, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Panics == 0 || want.Detected == want.Panics {
		t.Fatalf("synthetic campaign has %d panics and %d detected: want both kinds", want.Panics, want.Detected)
	}

	// Buffered so that a burst can queue ahead of the workers.
	feed := make(chan int, 16)
	go func() {
		rng := rand.New(rand.NewPCG(1, 2))
		order := rng.Perm(len(sites))
		for len(order) > 0 {
			n := min(1+rng.IntN(24), len(order))
			for _, i := range order[:n] {
				feed <- i
			}
			order = order[n:]
			time.Sleep(time.Duration(rng.IntN(200)) * time.Microsecond)
		}
		close(feed)
	}()
	var claimed atomic.Int64
	claim := func() (int, bool) {
		i, ok := <-feed
		if ok {
			claimed.Add(1)
		}
		return i, ok
	}
	got, err := Simulate(sites, runners, SimOptions{Claim: claim})
	if err != nil {
		t.Fatal(err)
	}
	if n := claimed.Load(); n != int64(len(sites)) {
		t.Errorf("%d sites claimed through Claim, want %d", n, len(sites))
	}
	if !slices.Equal(got.Results, want.Results) {
		t.Error("claimed campaign settles other verdicts than the cursor")
	}
	if got.Detected != want.Detected || got.Panics != want.Panics {
		t.Errorf("claimed campaign: %d detected, %d panics; cursor: %d, %d",
			got.Detected, got.Panics, want.Detected, want.Panics)
	}
}

func TestSimulateCrashCountsAsDetected(t *testing.T) {
	sites := []Site{{Unit: UnitHDCU, Signal: SigCtl, Path: CtlLoadUse, Stuck: 1}}
	run := func(p Plane) (uint32, bool) {
		if p.Ctl(CtlLoadUse, false) {
			return 0, false // deadlock -> watchdog
		}
		return 99, true
	}
	rep := simulateShared(sites, run, 1)
	if rep.Detected != 1 || !rep.Results[0].Crashed {
		t.Errorf("crash not detected: %+v", rep.Results[0])
	}
}

func TestMinMax(t *testing.T) {
	r1 := Report{Total: 100, Detected: 60}
	r2 := Report{Total: 100, Detected: 75}
	mm := NewMinMax([]Report{r1, r2})
	if mm.Min != 60 || mm.Max != 75 {
		t.Errorf("minmax %+v", mm)
	}
}

func TestSortAndSample(t *testing.T) {
	sites := ForwardingLogic(DefaultOptions(32))
	SortSites(sites)
	for i := 1; i < len(sites); i++ {
		if sites[i] == sites[i-1] {
			t.Fatal("duplicate after sort")
		}
	}
	s4 := Sample(sites, 4)
	if len(s4) != (len(sites)+3)/4 {
		t.Errorf("sample size %d of %d", len(s4), len(sites))
	}
}

func TestForceBitProperty(t *testing.T) {
	prop := func(v uint32, bit uint8, stuck bool) bool {
		bit %= 32
		var st uint8
		if stuck {
			st = 1
		}
		got := forceBit32(v, bit, st)
		otherBitsSame := got&^(uint32(1)<<bit) == v&^(uint32(1)<<bit)
		if stuck {
			return got&(1<<bit) != 0 && otherBitsSame
		}
		return got&(1<<bit) == 0 && otherBitsSame
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTransitionFaultEdges(t *testing.T) {
	site := Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowRise,
		Lane: 0, Operand: 0, Path: PathEXL0, Bit: 4}
	f := NewTransition(site)
	// First use: no history, value passes.
	if v := f.MuxData(0, 0, PathEXL0, 1<<4); v != 1<<4 {
		t.Errorf("first use corrupted: %#x", v)
	}
	// 1 -> 1: no edge, passes.
	if v := f.MuxData(0, 0, PathEXL0, 1<<4); v != 1<<4 {
		t.Errorf("steady high corrupted: %#x", v)
	}
	// 1 -> 0: falling edge is healthy on a slow-to-rise fault.
	if v := f.MuxData(0, 0, PathEXL0, 0); v != 0 {
		t.Errorf("fall corrupted: %#x", v)
	}
	// 0 -> 1: the rising edge is late; the stale 0 is delivered once.
	if v := f.MuxData(0, 0, PathEXL0, 1<<4); v != 0 {
		t.Errorf("slow rise not modelled: %#x", v)
	}
	// Recovered on the next use.
	if v := f.MuxData(0, 0, PathEXL0, 1<<4); v != 1<<4 {
		t.Errorf("did not recover: %#x", v)
	}
	// Other paths untouched.
	if v := f.MuxData(0, 0, PathEXL1, 0); v != 0 {
		t.Error("fault leaked to another path")
	}
}

func TestTransitionSlowFall(t *testing.T) {
	site := Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowFall,
		Lane: 1, Operand: 1, Path: PathCascade, Bit: 0}
	f := NewTransition(site)
	f.MuxData(1, 1, PathCascade, 1) // line high
	if v := f.MuxData(1, 1, PathCascade, 0); v != 1 {
		t.Errorf("slow fall not modelled: %#x", v)
	}
	if v := f.MuxData(1, 1, PathCascade, 0); v != 0 {
		t.Errorf("did not recover: %#x", v)
	}
}

func TestTransitionUniverse(t *testing.T) {
	sites := TransitionFaults(DefaultOptions(32))
	wantData := (4 + 5) * 2 * 32 * 2 // same line count as stuck-at, 2 kinds
	if len(sites) != wantData {
		t.Errorf("universe = %d, want %d", len(sites), wantData)
	}
	for _, s := range sites {
		if s.Kind == KindStuckAt {
			t.Fatal("stuck-at site in transition universe")
		}
	}
	SortSites(sites)
	seen := map[Site]bool{}
	for _, s := range sites {
		if seen[s] {
			t.Fatal("duplicate transition site")
		}
		seen[s] = true
	}
}

func TestPlaneForDispatch(t *testing.T) {
	sa := Site{Unit: UnitFwd, Signal: SigMuxData, Stuck: 1}
	if _, ok := PlaneFor(sa).(*Single); !ok {
		t.Error("stuck-at site got wrong plane")
	}
	tr := Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowRise}
	if _, ok := PlaneFor(tr).(*Transition); !ok {
		t.Error("transition site got wrong plane")
	}
}

func TestTransitionIdentityHooks(t *testing.T) {
	f := NewTransition(Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowRise})
	if f.MuxSel(0, 0, 3) != 3 || !f.CmpEq(1, 5, 5) || f.CmpEq(1, 5, 6) {
		t.Error("select/compare hooks not identity")
	}
	if !f.Ctl(CtlLoadUse, true) || f.EvLine(0, false) {
		t.Error("control/event hooks not identity")
	}
	if f.Cause(3) != 3 || f.Dist(9) != 9 || f.Enable(7) != 7 || f.EPC(0x80) != 0x80 {
		t.Error("ICU hooks not identity")
	}
	if f.CounterRead(1, 42) != 42 || !f.CounterInc(1, true) {
		t.Error("counter hooks not identity")
	}
}

func TestSiteAndKindStrings(t *testing.T) {
	sa := Site{Unit: UnitFwd, Signal: SigMuxData, Lane: 1, Operand: 1,
		Path: PathCascade, Bit: 17, Stuck: 0}
	if got := sa.String(); got != "FWD/muxdata L1 opB p5 b17 SA0" {
		t.Errorf("stuck-at string %q", got)
	}
	tr := Site{Unit: UnitFwd, Signal: SigMuxData, Kind: KindSlowFall,
		Lane: 0, Operand: 0, Path: PathEXL0, Bit: 3}
	if got := tr.String(); got != "FWD/muxdata L0 opA p1 b3 STF" {
		t.Errorf("transition string %q", got)
	}
	for k, want := range map[Kind]string{KindStuckAt: "SA", KindSlowRise: "STR", KindSlowFall: "STF", Kind(9): "?"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
	for u, want := range map[Unit]string{UnitFwd: "FWD", UnitHDCU: "HDCU", UnitICU: "ICU", UnitPerf: "PERF", Unit(9): "?"} {
		if u.String() != want {
			t.Errorf("Unit(%d) = %q", u, u.String())
		}
	}
	if Signal(200).String() != "?" {
		t.Error("out-of-range signal string")
	}
}

func TestComparatorIDsDisjoint(t *testing.T) {
	seen := map[uint8]string{}
	add := func(id uint8, name string) {
		if prev, dup := seen[id]; dup {
			t.Errorf("comparator id %d used by both %s and %s", id, prev, name)
		}
		seen[id] = name
	}
	for path := uint8(PathEXL0); path <= PathCascade; path++ {
		for lane := uint8(0); lane < 2; lane++ {
			for op := uint8(0); op < 2; op++ {
				add(CmpFwd(path, lane, op), "fwd")
			}
		}
	}
	for ex := uint8(0); ex < 2; ex++ {
		for cand := uint8(0); cand < 2; cand++ {
			for op := uint8(0); op < 2; op++ {
				add(CmpLoadUse(ex, cand, op), "loaduse")
			}
		}
	}
	for k := uint8(0); k < 3; k++ {
		add(CmpIntra(k), "intra")
	}
	for id := range seen {
		if id >= NumCmp {
			t.Errorf("comparator id %d out of the enumerated space", id)
		}
	}
}

func TestSingleICUFullHookSet(t *testing.T) {
	cause := NewSingle(Site{Unit: UnitICU, Signal: SigCause, Bit: 1, Stuck: 1})
	if cause.Cause(0) != 2 {
		t.Error("cause bit not forced")
	}
	if cause.Enable(5) != 5 || cause.EPC(7) != 7 {
		t.Error("cause fault leaked into other hooks")
	}
	en := NewSingle(Site{Unit: UnitICU, Signal: SigEnable, Bit: 0, Stuck: 0})
	if en.Enable(0xF) != 0xE {
		t.Error("enable bit not forced")
	}
	epc := NewSingle(Site{Unit: UnitICU, Signal: SigEPC, Bit: 4, Stuck: 1})
	if epc.EPC(0) != 16 {
		t.Error("epc bit not forced")
	}
	cnt := NewSingle(Site{Unit: UnitPerf, Signal: SigCntBit, Lane: CntIFStall, Bit: 2, Stuck: 0})
	if cnt.CounterRead(CntIFStall, 0xF) != 0xB {
		t.Error("counter bit not forced")
	}
	if cnt.CounterRead(CntMemStall, 0xF) != 0xF {
		t.Error("counter fault leaked to other counter")
	}
	ev := NewSingle(Site{Unit: UnitICU, Signal: SigEvLine, Path: 1, Stuck: 0})
	if ev.EvLine(1, true) {
		t.Error("event line stuck-at-0 still asserted")
	}
}

func TestReportString(t *testing.T) {
	r := Report{Golden: 0xABCD, Total: 10, Detected: 7}
	s := r.String()
	if s == "" || r.Coverage() != 70 {
		t.Errorf("report string %q coverage %f", s, r.Coverage())
	}
	empty := Report{}
	if empty.Coverage() != 0 {
		t.Error("empty report coverage")
	}
}
