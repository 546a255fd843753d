package core

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/sbst"
	"repro/internal/soc"
)

// runSig executes a routine cache-wrapped on a single core with the given
// fault plane and returns (signature, ok).
func runSig(t *testing.T, mk func(int) *sbst.Routine, plane fault.Plane) (uint32, bool) {
	t.Helper()
	c := cfg(1, true, true, [3]int{})
	c.Cores[0].Plane = plane
	res, _, err := RunSingle(c, 0,
		&CoreJob{Routine: mk(0), Strategy: CacheBased{WriteAllocate: true}, CodeBase: soc.CodeLow},
		maxRun)
	if err != nil {
		t.Fatal(err)
	}
	return res.Signature, res.OK
}

// TestDetectionMatrix verifies end to end, for one representative fault of
// every signal class, that the targeting routine's signature changes (or
// the run fails) under the cache-based strategy. This pins the fault model
// to the routines: a refactor that silently stops exercising a signal
// class breaks here, not in a slow campaign.
func TestDetectionMatrix(t *testing.T) {
	cases := []struct {
		name    string
		site    fault.Site
		routine func(int) *sbst.Routine
	}{
		{
			"forwarding mux data EX-EX lane0 opA bit5 SA1",
			fault.Site{Unit: fault.UnitFwd, Signal: fault.SigMuxData,
				Lane: 0, Operand: 0, Path: fault.PathEXL0, Bit: 5, Stuck: 1},
			fwdRoutine,
		},
		{
			"forwarding mux data cascade lane1 opB bit0 SA0",
			fault.Site{Unit: fault.UnitFwd, Signal: fault.SigMuxData,
				Lane: 1, Operand: 1, Path: fault.PathCascade, Bit: 0, Stuck: 0},
			fwdRoutine,
		},
		{
			"forwarding mux data MEM-EX lane0 opB bit31 SA0",
			fault.Site{Unit: fault.UnitFwd, Signal: fault.SigMuxData,
				Lane: 0, Operand: 1, Path: fault.PathMEML1, Bit: 31, Stuck: 0},
			fwdRoutine,
		},
		{
			"forwarding mux select lane0 opA bit0 SA1",
			fault.Site{Unit: fault.UnitFwd, Signal: fault.SigMuxSel,
				Lane: 0, Operand: 0, Bit: 0, Stuck: 1},
			fwdRoutine,
		},
		{
			"hazard comparator EXL0->lane0 opA bit0 SA1 (false match)",
			fault.Site{Unit: fault.UnitHDCU, Signal: fault.SigCmp,
				Path: fault.CmpFwd(fault.PathEXL0, 0, 0), Bit: 0, Stuck: 1},
			hdcuRoutine,
		},
		{
			"hazard comparator EXL1->lane1 opB bit2 SA0 (missing forward)",
			fault.Site{Unit: fault.UnitHDCU, Signal: fault.SigCmp,
				Path: fault.CmpFwd(fault.PathEXL1, 1, 1), Bit: 2, Stuck: 0},
			hdcuRoutine,
		},
		{
			"load-use comparator SA0 (missing stall, stale value)",
			fault.Site{Unit: fault.UnitHDCU, Signal: fault.SigCmp,
				Path: fault.CmpLoadUse(0, 0, 0), Bit: 1, Stuck: 0},
			hdcuRoutine,
		},
		{
			"cascade enable stuck at 0 (packets always split)",
			fault.Site{Unit: fault.UnitHDCU, Signal: fault.SigCtl,
				Path: fault.CtlCascade, Stuck: 0},
			hdcuRoutine,
		},
		{
			"split request stuck at 1 (never dual-issues)",
			fault.Site{Unit: fault.UnitHDCU, Signal: fault.SigCtl,
				Path: fault.CtlSplit, Stuck: 1},
			hdcuRoutine,
		},
		{
			"ICU event line 3 stuck at 0 (event lost)",
			fault.Site{Unit: fault.UnitICU, Signal: fault.SigEvLine,
				Path: fault.EvDivZero, Stuck: 0},
			icuRoutine,
		},
		{
			"ICU event line 0 stuck at 1 (spurious events)",
			fault.Site{Unit: fault.UnitICU, Signal: fault.SigEvLine,
				Path: fault.EvOverflowAdd, Stuck: 1},
			icuRoutine,
		},
		{
			"ICU cause bit 1 stuck at 0",
			fault.Site{Unit: fault.UnitICU, Signal: fault.SigCause, Bit: 1, Stuck: 0},
			icuRoutine,
		},
		{
			"ICU distance counter bit 1 stuck at 1",
			fault.Site{Unit: fault.UnitICU, Signal: fault.SigDist, Bit: 1, Stuck: 1},
			icuRoutine,
		},
		{
			"ICU enable mask bit 0 stuck at 0 (interrupt never taken)",
			fault.Site{Unit: fault.UnitICU, Signal: fault.SigEnable, Bit: 0, Stuck: 0},
			icuRoutine,
		},
		{
			"hazstall counter increment stuck at 0",
			fault.Site{Unit: fault.UnitPerf, Signal: fault.SigCntInc,
				Lane: fault.CntHazStall, Stuck: 0},
			hdcuRoutine,
		},
		{
			"issued2 counter bit 3 stuck at 0",
			fault.Site{Unit: fault.UnitPerf, Signal: fault.SigCntBit,
				Lane: fault.CntIssued2, Bit: 3, Stuck: 0},
			hdcuRoutine,
		},
	}

	goldens := map[string]uint32{}
	for _, c := range cases {
		key := c.site.String()[:4] // routine identity via unit prefix is enough
		if _, ok := goldens[key]; !ok {
			sig, ok := runSig(t, c.routine, nil)
			if !ok {
				t.Fatalf("golden run for %s failed", key)
			}
			goldens[key] = sig
		}
	}
	for _, c := range cases {
		key := c.site.String()[:4]
		sig, ok := runSig(t, c.routine, fault.NewSingle(c.site))
		if ok && sig == goldens[key] {
			t.Errorf("%s: fault not detected (sig %08x)", c.name, sig)
		}
	}
}

// TestLoadUseStallStuckAt1TimesOut pins the watchdog path: a permanently
// asserted load-use stall deadlocks issue; the run must time out (counted
// as detected by the campaign driver).
func TestLoadUseStallStuckAt1TimesOut(t *testing.T) {
	site := fault.Site{Unit: fault.UnitHDCU, Signal: fault.SigCtl,
		Path: fault.CtlLoadUse, Stuck: 1}
	_, ok := func() (uint32, bool) {
		c := cfg(1, true, true, [3]int{})
		c.Cores[0].Plane = fault.NewSingle(site)
		res, _, err := RunSingle(c, 0,
			&CoreJob{Routine: hdcuRoutine(0), Strategy: CacheBased{WriteAllocate: true}, CodeBase: soc.CodeLow},
			200_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Signature, res.OK
	}()
	if ok {
		t.Error("stuck stall line did not deadlock the pipeline")
	}
}

// TestDualIssueAlgorithmBeatsSingleIssueBaseline reproduces the paper's
// algorithm-selection rationale: the dual-issue-aware forwarding test of
// [19] covers strictly more of the forwarding network than a test written
// against a scalar pipeline model ([18]-style), because only the former
// steers dependencies onto specific lanes and the cascade path.
func TestDualIssueAlgorithmBeatsSingleIssueBaseline(t *testing.T) {
	sites := fault.ForwardingLogic(fault.ListOptions{DataBits: 32, BitStep: 8})
	fault.SortSites(sites)
	sites = fault.Sample(sites, 2)

	coverage := func(mk func(int) *sbst.Routine) float64 {
		run := func(p fault.Plane) (uint32, bool) {
			c := cfg(1, true, true, [3]int{})
			c.Cores[0].Plane = p
			res, _, err := RunSingle(c, 0,
				&CoreJob{Routine: mk(0), Strategy: CacheBased{WriteAllocate: true}, CodeBase: soc.CodeLow},
				maxRun)
			if err != nil {
				return 0, false
			}
			return res.Signature, res.OK
		}
		// Without a journal Simulate has no error to report.
		rep, _ := fault.Simulate(sites, slices.Repeat([]fault.RunFunc{run}, fault.Workers(0, len(sites))), fault.SimOptions{})
		return rep.Coverage()
	}

	dual := coverage(fwdRoutine)
	single := coverage(func(id int) *sbst.Routine {
		return sbst.NewForwardingTestSingleIssue(dataBaseFor(id))
	})
	t.Logf("dual-issue algorithm FC %.2f%%, single-issue baseline FC %.2f%%", dual, single)
	if dual <= single {
		t.Errorf("dual-issue algorithm (%.2f%%) must beat the scalar baseline (%.2f%%)",
			dual, single)
	}
	if dual-single < 5 {
		t.Errorf("advantage %.2f points implausibly small", dual-single)
	}
}

// TestUpperHalfFaultDetectedOnCoreC: bits 32..63 of the forwarding lines
// exist only on core C and are exercised only by the paired-register
// sequences of the 64-bit routine variant.
func TestUpperHalfFaultDetectedOnCoreC(t *testing.T) {
	mk := func(int) *sbst.Routine {
		return sbst.NewForwardingTest(sbst.ForwardingOptions{
			DataBase: dataBaseFor(2), Pairs64: true,
		})
	}
	run := func(plane fault.Plane) (uint32, bool) {
		c := cfg(3, true, true, [3]int{})
		for id := 0; id < soc.NumCores; id++ {
			c.Cores[id].Active = id == 2
		}
		c.Cores[2].Plane = plane
		res, _, err := RunSingle(c, 2,
			&CoreJob{Routine: mk(2), Strategy: CacheBased{WriteAllocate: true}, CodeBase: soc.CodeLow},
			maxRun)
		if err != nil {
			t.Fatal(err)
		}
		return res.Signature, res.OK
	}
	golden, ok := run(nil)
	if !ok {
		t.Fatal("golden failed")
	}
	site := fault.Site{Unit: fault.UnitFwd, Signal: fault.SigMuxData,
		Lane: 0, Operand: 0, Path: fault.PathEXL0, Bit: 40, Stuck: 1}
	if sig, ok := run(fault.NewSingle(site)); ok && sig == golden {
		t.Error("upper-half EXL0 fault not detected by the 64-bit routine")
	}
	// The same fault on a lane-1 path is structurally unreachable (pair
	// operations issue alone), the source of core C's lower coverage.
	unreachable := fault.Site{Unit: fault.UnitFwd, Signal: fault.SigMuxData,
		Lane: 1, Operand: 0, Path: fault.PathCascade, Bit: 40, Stuck: 1}
	if sig, ok := run(fault.NewSingle(unreachable)); !ok || sig != golden {
		t.Error("cascade upper-half fault unexpectedly detected (model change?)")
	}
}
