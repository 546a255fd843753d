package core

// Campaign-telemetry pins: attaching a registry, an event stream and the
// progress ticker must not change a single verdict, and every metric must
// reconcile exactly with the report it describes. Run under -race in CI,
// TestCampaignTelemetryCounts doubles as the data-race gate for worker
// arenas sharing one registry's atomics.

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// syncBuffer is a goroutine-safe writer for ticker output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestCampaignTelemetryCounts(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	sites := campaignSites()

	plain, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
		CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	var stream bytes.Buffer
	log := telemetry.NewEventLog(&stream)
	rep, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
		CampaignOptions{Workers: 4, Telemetry: reg, Events: log})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Err(); err != nil {
		t.Fatal(err)
	}
	if !plain.SameVerdicts(rep) {
		t.Fatal("attaching telemetry changed the report")
	}

	// Metrics reconcile exactly with the report.
	if got := reg.Counter("campaign_sites_settled_total").Value(); got != int64(len(rep.Results)) {
		t.Errorf("settled counter = %d, want %d", got, len(rep.Results))
	}
	if got := reg.Counter("campaign_verdict_detected_total").Value(); got != int64(rep.Detected) {
		t.Errorf("detected counter = %d, want %d", got, rep.Detected)
	}
	if got := reg.Counter("campaign_verdict_panicked_total").Value(); got != int64(rep.Panics) {
		t.Errorf("panicked counter = %d, want %d", got, rep.Panics)
	}
	var dispatchSum int64
	for p := fault.DispatchPath(0); p < fault.NumDispatchPaths; p++ {
		dispatchSum += reg.Counter("arena_dispatch_" + p.String() + "_total").Value()
	}
	if dispatchSum != int64(len(rep.Results)) {
		t.Errorf("dispatch counters sum to %d, want %d", dispatchSum, len(rep.Results))
	}
	if got := rep.Dispatch.Total(); got != int64(len(rep.Results)) {
		t.Errorf("report dispatch total = %d, want %d", got, len(rep.Results))
	}
	// The universe mixes stuck-at and transition sites, so both the full
	// replay and at least one checkpoint shortcut must have served.
	if rep.Dispatch[fault.DispatchFullReplay] == 0 || rep.Dispatch.Shortcuts() == 0 {
		t.Errorf("dispatch does not cover both path families: %s", rep.Dispatch)
	}
	if !strings.Contains(rep.String(), "dispatch:") {
		t.Errorf("Report.String misses the dispatch line:\n%s", rep.String())
	}

	// The event stream decodes strictly and mirrors the report: one start,
	// one finish, one site event per settled site.
	events, err := telemetry.DecodeEvents(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if got := telemetry.CountKind(events, telemetry.EventSite); got != len(rep.Results) {
		t.Errorf("%d site events, want %d", got, len(rep.Results))
	}
	if telemetry.CountKind(events, telemetry.EventStart) != 1 ||
		telemetry.CountKind(events, telemetry.EventFinish) != 1 {
		t.Error("stream must carry exactly one start and one finish event")
	}
	for _, e := range events {
		if e.Kind == telemetry.EventFinish {
			if e.Settled != int64(len(rep.Results)) || e.DetectedTotal != int64(rep.Detected) {
				t.Errorf("finish event %+v disagrees with report (%d settled, %d detected)",
					e, len(rep.Results), rep.Detected)
			}
		}
	}
}

// TestCampaignTelemetryJournalResume pins the resumed-campaign half of the
// contract: sites folded in from a journal count as settled (and emit site
// events flagged journal=true) without being re-dispatched by an arena.
func TestCampaignTelemetryJournalResume(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	sites := campaignSites()
	journal := t.TempDir() + "/campaign.journal"
	if _, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
		CampaignOptions{Workers: 2, Journal: journal}); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	var stream bytes.Buffer
	rep, err := RunCampaignOpts(replayCfg, 0, job, sites, budget,
		CampaignOptions{Workers: 2, Journal: journal, Resume: true,
			Telemetry: reg, Events: telemetry.NewEventLog(&stream)})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("campaign_sites_settled_total").Value(); got != int64(len(rep.Results)) {
		t.Errorf("settled counter = %d, want %d", got, len(rep.Results))
	}
	if got := reg.Counter("campaign_sites_from_journal_total").Value(); got != int64(len(sites)) {
		t.Errorf("journal counter = %d, want %d (fully settled journal)", got, len(sites))
	}
	if got := rep.Dispatch.Total(); got != 0 {
		t.Errorf("fully journal-resumed campaign dispatched %d sites, want 0", got)
	}
	events, err := telemetry.DecodeEvents(&stream)
	if err != nil {
		t.Fatal(err)
	}
	journaled := 0
	for _, e := range events {
		if e.Kind == telemetry.EventSite && e.FromJournal {
			journaled++
		}
	}
	if journaled != len(sites) {
		t.Errorf("%d journal-flagged site events, want %d", journaled, len(sites))
	}
}

// TestCampaignProgressTicker pins the progress line's shape and sources:
// it reads only registry atomics and renders settled/total, the rate and
// the checkpoint-hit percentage.
func TestCampaignProgressTicker(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("campaign_sites_settled_total").Add(40)
	reg.Counter("campaign_verdict_detected_total").Add(31)
	reg.Counter("arena_dispatch_" + fault.DispatchCheckpoint.String() + "_total").Add(10)
	var buf syncBuffer
	var stream bytes.Buffer
	log := telemetry.NewEventLog(&stream)
	tk := campaignProgress(reg, CampaignOptions{
		Progress: 2 * time.Millisecond, ProgressWriter: &buf, Events: log,
	}, 96, time.Now())
	deadline := time.Now().Add(5 * time.Second)
	for buf.String() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tk.Stop()
	out := buf.String()
	if !strings.Contains(out, "progress: 40/96 sites") {
		t.Errorf("progress line misses settled/total:\n%s", out)
	}
	if !strings.Contains(out, "sites/s") || !strings.Contains(out, "checkpoint-hit") {
		t.Errorf("progress line misses rate or checkpoint-hit:\n%s", out)
	}
	events, err := telemetry.DecodeEvents(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.CountKind(events, telemetry.EventProgress) == 0 {
		t.Fatal("no progress events emitted")
	}
	for _, e := range events {
		if e.Kind == telemetry.EventProgress && e.Settled != 40 {
			t.Errorf("progress event settled = %d, want 40", e.Settled)
		}
	}
}

// TestArenaQuarantineEvent pins that a quarantine reaches both telemetry
// sinks: the arena_quarantines_total counter and a quarantine event naming
// the core.
func TestArenaQuarantineEvent(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	reg := telemetry.NewRegistry()
	var stream bytes.Buffer
	a, err := NewArena(replayCfg, 0, job, budget,
		ArenaOptions{Telemetry: reg, Events: telemetry.NewEventLog(&stream)})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	a.testPoison = func(s *soc.SoC) {
		calls++
		if calls == 1 {
			panic("injected arena defect")
		}
		poisonData(job)(s)
	}
	func() {
		defer func() { recover() }()
		a.Run(fault.None)
	}()
	if _, ok := a.Run(fault.None); !ok {
		t.Fatal("post-quarantine golden run failed")
	}
	if a.Stats().Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", a.Stats().Quarantines)
	}
	if got := reg.Counter("arena_quarantines_total").Value(); got != 1 {
		t.Errorf("quarantine counter = %d, want 1", got)
	}
	events, err := telemetry.DecodeEvents(&stream)
	if err != nil {
		t.Fatal(err)
	}
	quars := 0
	for _, e := range events {
		if e.Kind == telemetry.EventQuarantine {
			quars++
			if e.Core != 0 {
				t.Errorf("quarantine event %+v, want core 0", e)
			}
		}
	}
	if quars != 1 {
		t.Errorf("%d quarantine events, want 1", quars)
	}
}

// TestArenaStatsSnapshot pins the ArenaStats snapshot against the arena's
// run accounting: every site lands in exactly one dispatch class, and the
// long-lived SoC stepped exactly the golden capture, each health check and
// each site served neither the golden verdict nor a fallback run.
func TestArenaStatsSnapshot(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	a := checkpointedArena(t, replayCfg, job, budget, 512)
	sites := campaignSites()
	for _, s := range sites {
		a.Run(fault.PlaneFor(s))
	}
	st := a.Stats()
	if !st.GoldenOK || st.Quarantines != 0 || st.GoldenEvents == 0 || st.Checkpoints == 0 {
		t.Fatalf("want a healthy checkpointed arena, Stats() = %+v", st)
	}
	if st.Dispatch.Total() != int64(len(sites)) {
		t.Errorf("dispatch total = %d, want %d", st.Dispatch.Total(), len(sites))
	}
	if want := 1 + st.HealthChecks + int64(len(sites)) -
		st.Dispatch[fault.DispatchGolden] - st.Dispatch[fault.DispatchFallback]; st.Runs != want {
		t.Errorf("Runs = %d, want %d: %+v", st.Runs, want, st)
	}
}
