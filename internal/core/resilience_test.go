package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// poisonData returns a testPoison hook that corrupts the first word of
// job's data table — post-Reset state the golden replay is guaranteed to
// read, so a health check against the poisoned arena must see a divergent
// result.
func poisonData(job *CoreJob) func(*soc.SoC) {
	return func(s *soc.SoC) {
		off := job.Routine.DataBase - mem.SRAMBase
		mem.WriteWord(s.SRAM, off, mem.ReadWord(s.SRAM, off)^0xDEADBEEF)
	}
}

// hangSite stalls the pipeline forever (load-use request stuck on), so its
// run is always watchdog-cut — the trigger for the arena health check.
var hangSite = fault.Site{Unit: fault.UnitHDCU, Signal: fault.SigCtl, Path: fault.CtlLoadUse, Stuck: 1}

// TestArenaQuarantineRecoversPoisonedReset extends the
// TestArenaResetMatchesFreshSoC family with a deliberately corrupted
// arena: the poison hook trashes post-Reset state, the watchdog-cut run's
// health check detects it, the arena is quarantined and rebuilt, and the
// suspect site's verdict comes from a fresh SoC — matching a
// rebuild-per-fault run exactly.
func TestArenaQuarantineRecoversPoisonedReset(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 2, Plain{})
	wantRes, _ := freshRun(t, replayCfg, job, budget, nil)
	freshHang, _ := freshRun(t, replayCfg, job, budget, fault.PlaneFor(hangSite))

	a, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Control: a cut run on a healthy arena passes its health check and no
	// quarantine happens.
	sig, ok := a.Run(fault.PlaneFor(hangSite))
	if ok != freshHang.OK || (ok && sig != freshHang.Signature) {
		t.Fatalf("healthy arena hang verdict (%08x, %v) != fresh (%08x, %v)",
			sig, ok, freshHang.Signature, freshHang.OK)
	}
	if a.Stats().HealthChecks != 1 || a.Stats().Quarantines != 0 {
		t.Fatalf("healthy cut run: checks=%d quarantines=%d, want 1/0",
			a.Stats().HealthChecks, a.Stats().Quarantines)
	}

	// Poison the arena. The next cut run must fail its health check,
	// quarantine the arena, and settle the site on a fresh SoC.
	a.testPoison = poisonData(job)
	sig, ok = a.Run(fault.PlaneFor(hangSite))
	if a.Stats().Quarantines != 1 {
		t.Fatalf("poisoned arena not quarantined (quarantines=%d)", a.Stats().Quarantines)
	}
	if n := a.Stats().Dispatch[fault.DispatchFallback]; n != 1 {
		t.Errorf("suspect site not served by fallback (fallbacks=%d)", n)
	}
	if ok != freshHang.OK || (ok && sig != freshHang.Signature) {
		t.Errorf("quarantined site verdict (%08x, %v) != fresh-SoC (%08x, %v)",
			sig, ok, freshHang.Signature, freshHang.OK)
	}
	if a.testPoison != nil {
		t.Error("rebuild kept the poison hook")
	}

	// The rebuilt arena is healthy again: golden runs reproduce the fresh
	// result exactly, monitor wiring included.
	for i := 0; i < 2; i++ {
		sig, ok = a.Run(fault.None)
		if sig != wantRes.Signature || !ok {
			t.Fatalf("rebuilt arena golden %08x ok=%v, fresh %08x", sig, ok, wantRes.Signature)
		}
		if got := a.Last(); got != wantRes {
			t.Errorf("rebuilt arena result %+v != fresh %+v", got, wantRes)
		}
	}
}

// TestArenaQuarantineKeepsCallCapture pins a quarantine inside a
// multi-arena Run call: the poisoned arena is rebuilt over the call's
// capture, the same one its sibling runs on, with the checkpoints placed
// for the call's sites, and no second capture runs. The cut site settles
// as on a fresh SoC, and the universe then settles on both arenas at
// once, the rebuilt arena's fresh SoC beside its sibling over the shared
// image, to the reference mode's verdicts.
func TestArenaQuarantineKeepsCallCapture(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	sites := campaignSites()
	c := &Campaign{Cfg: replayCfg, Core: 0, Job: job, Sites: sites, Budget: budget}
	want, err := c.Run(sites, CampaignOptions{Workers: 2, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	freshHang, _ := freshRun(t, replayCfg, job, budget, fault.PlaneFor(hangSite))

	reg := telemetry.NewRegistry()
	mode := autoMode(c)
	mode.Telemetry = reg
	arenas := callArenas(t, c, mode, sites, nil, 2)
	g := arenas[0].gold
	placed := g.cycles()
	if len(placed) == 0 || evenlySpaced(g, mode.CheckpointInterval) {
		t.Fatalf("capture kept its uniform checkpoints %v; the test cannot tell them from a re-capture's", placed)
	}

	a := arenas[1]
	a.testPoison = poisonData(job)
	sig, ok := a.Run(fault.PlaneFor(hangSite))
	if ok != freshHang.OK || (ok && sig != freshHang.Signature) {
		t.Errorf("quarantined site verdict (%08x, %v) != fresh-SoC (%08x, %v)",
			sig, ok, freshHang.Signature, freshHang.OK)
	}
	if n := a.Stats().Quarantines; n != 1 {
		t.Fatalf("poisoned arena not quarantined (quarantines=%d)", n)
	}
	if a.gold != g || !slices.Equal(a.gold.cycles(), placed) {
		t.Errorf("quarantined arena restores from %v, the call's capture from %v", a.gold.cycles(), placed)
	}
	if n := captures(reg); n != 1 {
		t.Errorf("%d golden captures in one call with a quarantine, want 1", n)
	}

	runners := []fault.RunFunc{arenas[0].Run, a.Run}
	got, err := fault.Simulate(sites, runners, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameVerdicts(want) {
		t.Error("the call's arenas settle differently from the reference mode after a quarantine")
	}
}

// TestArenaPanickedRunHealthCheck pins the panic leg of the failure
// domain: a run that panics out of the arena (caught by the campaign's
// recover boundary) leaves inRun set, and the next Run health-checks the
// arena before serving its site — quarantining it when the panic left
// corrupt state behind.
func TestArenaPanickedRunHealthCheck(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	wantRes, _ := freshRun(t, replayCfg, job, budget, nil)

	a, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// First call panics mid-run (the simulated defect); every later call
	// poisons post-Reset state (the mess the defect left behind).
	calls := 0
	a.testPoison = func(s *soc.SoC) {
		calls++
		if calls == 1 {
			panic("injected arena defect")
		}
		poisonData(job)(s)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not propagate")
			}
		}()
		a.Run(fault.None)
	}()

	sig, ok := a.Run(fault.None)
	if a.Stats().HealthChecks == 0 {
		t.Error("no health check after a panicked run")
	}
	if a.Stats().Quarantines != 1 {
		t.Fatalf("poisoned arena not quarantined after panic (quarantines=%d)", a.Stats().Quarantines)
	}
	if sig != wantRes.Signature || !ok {
		t.Errorf("post-quarantine golden %08x ok=%v, want %08x", sig, ok, wantRes.Signature)
	}
}

// TestArenaFallbackResetsStaleTransitionPlane pins the stateful-plane leg
// of the fallback path: a Transition plane that already executed on the
// (now retired) arena carries the poisoned run's edge history, and the
// fallback fresh-SoC run must not inherit it — the verdict has to match a
// clean rebuild-per-fault run of the same site exactly.
func TestArenaFallbackResetsStaleTransitionPlane(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	sites := fault.TransitionFaults(fault.ListOptions{DataBits: 32, BitStep: 8})
	fault.SortSites(sites)
	sites = fault.Sample(sites, 5)

	a, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	staleSeen := false
	for _, site := range sites {
		p := fault.NewTransition(site)
		a.Run(p) // leaves the run's edge history on the plane object
		if _, seen := p.History(); seen {
			staleSeen = true
		}
		sig, ok := a.fallbackRun(p)
		fresh, _ := freshRun(t, replayCfg, job, budget, fault.PlaneFor(site))
		if ok != fresh.OK || (ok && sig != fresh.Signature) {
			t.Errorf("%v: fallback of a used plane (%08x, %v) != clean run (%08x, %v)",
				site, sig, ok, fresh.Signature, fresh.OK)
		}
	}
	if !staleSeen {
		t.Fatal("no sampled site left edge history on its plane; test is vacuous")
	}
}

// TestArenaFallbackSurfacesBuildError pins that a fallback run whose
// fresh-SoC build fails panics (into the campaign's recover boundary,
// where it becomes a Panicked verdict plus an anomaly) instead of
// returning a fabricated crashed-run verdict.
func TestArenaFallbackSurfacesBuildError(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	a, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := *job
	bad.CodeBase = mem.FlashSize // program lands outside flash: build fails
	a.gold.job = &bad
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("fallback build error did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "fallback") {
			t.Errorf("panic does not identify the fallback path: %v", r)
		}
	}()
	a.fallbackRun(fault.None)
}

// campaignSites returns a small deterministic universe for campaign-level
// tests: stuck-at and transition sites (so both the full-replay and the
// checkpointed paths run), plus the hang site so the cut path is exercised.
func campaignSites() []fault.Site {
	sites := fault.ForwardingLogic(fault.ListOptions{DataBits: 32, BitStep: 8})
	fault.SortSites(sites)
	sites = fault.Sample(sites, 29)
	tr := fault.TransitionFaults(fault.ListOptions{DataBits: 32, BitStep: 8})
	fault.SortSites(tr)
	sites = append(sites, fault.Sample(tr, 7)...)
	return append(sites, hangSite)
}

// TestCampaignJournalResumeBitIdentical is the acceptance pin for the
// resume primitive at the engine level: a journaled campaign killed
// mid-append (journal truncated to a prefix plus a torn line) and resumed
// produces a fault.Report bit-identical to the uninterrupted run.
func TestCampaignJournalResumeBitIdentical(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	sites := campaignSites()
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.journal")
	killedPath := filepath.Join(dir, "killed.journal")

	full, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
		CampaignOptions{Workers: 2, Journal: fullPath})
	if err != nil {
		t.Fatal(err)
	}

	// Forge the killed journal: header, golden, three settled verdicts,
	// one torn mid-append.
	blob, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(blob), "\n")
	if len(lines) < 7 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	partial := strings.Join(lines[:5], "") + lines[5][:len(lines[5])/2]
	if err := os.WriteFile(killedPath, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
		CampaignOptions{Workers: 2, Journal: killedPath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !full.SameVerdicts(resumed) {
		t.Fatalf("resumed report differs from uninterrupted:\nfull    %+v\nresumed %+v", full, resumed)
	}

	// Both modes agree under journaling too: a reference-mode resume of
	// the same optimized-arena journal reproduces the identical report.
	ref, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
		CampaignOptions{Workers: 2, Reference: true, Journal: killedPath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !full.SameVerdicts(ref) {
		t.Fatal("reference-mode resume differs from optimized report")
	}

	// Checkpointing is a pure engine optimisation, so it stays out of the
	// campaign fingerprint: a torn journal written by the (auto-
	// checkpointed) run above resumes under an engine with checkpointing
	// forced off and still reproduces the identical report.
	plainPath := filepath.Join(dir, "plain.journal")
	if err := os.WriteFile(plainPath, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}
	plain, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
		CampaignOptions{Workers: 2, Journal: plainPath, Resume: true, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !full.SameVerdicts(plain) {
		t.Fatal("checkpoint-off resume differs from checkpointed report")
	}
}

// TestCampaignJournalRefusesForeignFingerprint pins that a journal written
// by one campaign cannot be resumed by a different one: any change to the
// program, universe, or environment changes the fingerprint.
func TestCampaignJournalRefusesForeignFingerprint(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	sites := campaignSites()
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")

	if _, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
		CampaignOptions{Workers: 2, Journal: path}); err != nil {
		t.Fatal(err)
	}

	// Different budget -> different environment hash.
	if _, err := RunCampaignOpts(replayCfg, 0, job, sites, budget+1,
		CampaignOptions{Workers: 2, Journal: path, Resume: true}); err == nil {
		t.Error("budget change resumed a foreign journal")
	}
	// Different universe.
	if _, err := RunCampaignOpts(replayCfg, 0, job, sites[:len(sites)-1], budget,
		CampaignOptions{Workers: 2, Journal: path, Resume: true}); err == nil {
		t.Error("universe change resumed a foreign journal")
	}

	// Identity resume works and reruns nothing (the report is complete).
	rep, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
		CampaignOptions{Workers: 2, Journal: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != len(sites) {
		t.Errorf("resumed report total %d, want %d", rep.Total, len(sites))
	}
}
