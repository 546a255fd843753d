package experiments

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/soc"
)

// TestReplayPreservesDataflowSignature validates the fault campaigns'
// central approximation: replacing the other cores with replayed bus
// traffic changes arbitration details but must not change the core under
// test's *dataflow* signature (the no-performance-counter forwarding
// routine computes pure dataflow, so its signature is timing-invariant by
// the differential-test guarantee).
func TestReplayPreservesDataflowSignature(t *testing.T) {
	spec := scenarioSpec{active: 3, pos: soc.CodeMid, pad: 8}
	jobs := forwardingJobs(0, spec, func(int) core.Strategy { return core.Plain{} }, false)

	var rec *bus.Recorder
	full, _, err := core.RunJobsSetup(baseConfig(3, false), jobs, maxRunCycles,
		func(s *soc.SoC) { rec = s.AttachRecorder(0) })
	if err != nil {
		t.Fatal(err)
	}
	if !full[0].OK {
		t.Fatal("full run failed")
	}

	cfg := baseConfig(3, false)
	cfg.Replay = rec.EventsByMaster()
	for id := 0; id < soc.NumCores; id++ {
		cfg.Cores[id].Active = id == 0
	}
	var solo [soc.NumCores]*core.CoreJob
	solo[0] = jobs[0]
	replayed, _, err := core.RunJobs(cfg, solo, maxRunCycles)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed[0].OK {
		t.Fatal("replayed run failed")
	}
	if replayed[0].Signature != full[0].Signature {
		t.Errorf("replay changed the dataflow signature: %08x vs %08x",
			replayed[0].Signature, full[0].Signature)
	}
	// The replay must actually generate contention, not run the core solo.
	if replayed[0].IFStall*10 < full[0].IFStall*5 {
		t.Errorf("replayed contention too weak: ifstall %d vs full %d",
			replayed[0].IFStall, full[0].IFStall)
	}
}

func TestRendersContainHeaders(t *testing.T) {
	if s := RenderTableI([]TableIRow{{1, 10, 5}}); len(s) == 0 {
		t.Error("empty render")
	}
	r2 := RenderTableII([]TableIIRow{{Core: "A", Faults: 10, MinFC: 1, MaxFC: 2, CacheFC: 3}})
	r3 := RenderTableIII([]TableIIIRow{{Core: "A", Module: "ICU", Faults: 5, MultiNoCacheFails: true}})
	r4 := RenderTableIV([]TableIVRow{{Approach: "TCM-based"}, {Approach: "Cache-based"}})
	rd := RenderDelay([]DelayRow{{Core: "A"}})
	for _, s := range []string{r2, r3, r4, rd} {
		if len(s) < 40 {
			t.Errorf("suspiciously short render: %q", s)
		}
	}
}
