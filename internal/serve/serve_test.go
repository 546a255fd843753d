package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// quickSpec is the small campaign the end-to-end tests run: the forwarding
// universe at bit step 8 (the same reduction the engine tests use), single
// core, default cache strategy.
func quickSpec() Spec {
	return Spec{Routine: "forwarding", BitStep: 8}
}

// startServer boots a Server over a fresh store under t.TempDir.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	return s, hs
}

// submit posts spec and decodes the status reply.
func submit(t *testing.T, base string, spec Spec, query string) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %s", resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("submit: decode: %v", err)
	}
	return st
}

// getJSON fetches path and decodes into out, returning the status code.
func getJSON(t *testing.T, base, path string, out any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

// getRaw fetches path raw.
func getRaw(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, buf.Bytes()
}

// directReport runs the same campaign locally, bypassing the service, and
// renders it the way `faultsim -report` (and the service) does.
func directReport(t *testing.T, spec Spec) []byte {
	t.Helper()
	c, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget, core.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunCampaignOpts: %v", err)
	}
	blob, err := MarshalReport(rep)
	if err != nil {
		t.Fatalf("MarshalReport: %v", err)
	}
	return blob
}

func TestSpecBuildDeterministic(t *testing.T) {
	a, err := quickSpec().Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	b, err := quickSpec().Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if a.Header != b.Header {
		t.Fatalf("two builds fingerprint differently: %+v vs %+v", a.Header, b.Header)
	}
	if a.Header.Key() != b.Header.Key() {
		t.Fatalf("key mismatch: %s vs %s", a.Header.Key(), b.Header.Key())
	}
	if len(a.Sites) == 0 || len(a.Sites) != len(b.Sites) {
		t.Fatalf("universe sizes %d vs %d", len(a.Sites), len(b.Sites))
	}
}

// TestSpecContentAddressPinned pins the built universe size, cycle budget
// and content key of a spread of specs to constants, so a change in how
// campaigns are built — universe order, golden recording, budget formula,
// fingerprint encoding — cannot silently orphan existing journals and
// service stores. TestSpecBuildDeterministic only proves two builds in one
// process agree.
func TestSpecContentAddressPinned(t *testing.T) {
	cases := []struct {
		spec   Spec
		sites  int
		budget int64
		key    string
	}{
		{Spec{Routine: "forwarding", Core: 0, Strategy: "plain", BitStep: 8}, 168, 31480, "36731c1f34f204df"},
		{Spec{Routine: "forwarding", Core: 2, Strategy: "cache", Multicore: true, BitStep: 8, Faults: "transition"}, 288, 55160, "b58b7979e9de6ad8"},
		{Spec{Routine: "icu", Core: 1, Strategy: "tcm", Multicore: true}, 48, 215592, "3755ca32a6cbd8fa"},
	}
	for _, tc := range cases {
		c, err := tc.spec.Build()
		if err != nil {
			t.Fatalf("%+v: Build: %v", tc.spec, err)
		}
		if len(c.Sites) != tc.sites || c.Budget != tc.budget || c.Header.Key() != tc.key {
			t.Errorf("%+v: %d sites, budget %d, key %s; want %d sites, budget %d, key %s",
				tc.spec, len(c.Sites), c.Budget, c.Header.Key(), tc.sites, tc.budget, tc.key)
		}
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	cases := []Spec{
		{Core: 7},
		{Strategy: "warp"},
		{Faults: "gamma-ray"},
		{Routine: "hdcu", Faults: "transition"},
	}
	for _, spec := range cases {
		if _, err := spec.Normalized(); err == nil {
			t.Errorf("spec %+v: want error, got none", spec)
		}
	}
}

// TestServiceEndToEnd is the tentpole pin: a campaign submitted to the
// service, simulated by a worker over the shard protocol, must produce a
// report byte-identical to a direct local run — and a second submission of
// the same spec must complete entirely from the content-addressed store,
// with zero simulated sites.
func TestServiceEndToEnd(t *testing.T) {
	spec := quickSpec()
	want := directReport(t, spec)

	_, hs := startServer(t, Config{ShardSize: 7})
	st := submit(t, hs.URL, spec, "")
	if st.State != "running" {
		t.Fatalf("fresh job state %q, want running", st.State)
	}
	if st.Shards < 2 {
		t.Fatalf("want a multi-shard job, got %d shards of %d sites", st.Shards, st.Sites)
	}

	w := &Worker{Server: hs.URL, Name: "w1", Workers: 2, Drain: true, Telemetry: telemetry.NewRegistry()}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}

	var done JobStatus
	if code := getJSON(t, hs.URL, "/v1/jobs/"+st.ID, &done); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if done.State != "done" {
		t.Fatalf("job state %q (error %q), want done", done.State, done.Error)
	}
	if done.Simulated != done.Sites || done.FromCache != 0 {
		t.Fatalf("cold run accounting: simulated %d fromCache %d of %d", done.Simulated, done.FromCache, done.Sites)
	}
	code, got := getRaw(t, hs.URL, "/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("service report differs from direct run:\nservice: %.200s\ndirect:  %.200s", got, want)
	}

	// Second submission of the same spec: full cache hit, no worker runs.
	st2 := submit(t, hs.URL, spec, "")
	if st2.State != "done" {
		t.Fatalf("resubmitted job state %q, want done at submission", st2.State)
	}
	if st2.Simulated != 0 || st2.FromCache != st2.Sites {
		t.Fatalf("cache hit accounting: simulated %d fromCache %d of %d", st2.Simulated, st2.FromCache, st2.Sites)
	}
	code, got2 := getRaw(t, hs.URL, "/v1/jobs/"+st2.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("cached report: %d", code)
	}
	if !bytes.Equal(got2, want) {
		t.Fatalf("cached report differs from direct run")
	}

	// The cached job's event stream replays every verdict as journal-fed,
	// through the same strict schema faultsim streams.
	code, raw := getRaw(t, hs.URL, "/v1/jobs/"+st2.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	events, err := telemetry.DecodeEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("events decode: %v", err)
	}
	if n := telemetry.CountKind(events, telemetry.EventSite); n != st2.Sites {
		t.Fatalf("cached stream has %d site events, want %d", n, st2.Sites)
	}
	for _, e := range events {
		if e.Kind == telemetry.EventSite && !e.FromJournal {
			t.Fatalf("cached job streamed a non-journal site event: %+v", e)
		}
	}
	if telemetry.CountKind(events, telemetry.EventStart) != 1 || telemetry.CountKind(events, telemetry.EventFinish) != 1 {
		t.Fatalf("stream missing start/finish: %d/%d", telemetry.CountKind(events, telemetry.EventStart), telemetry.CountKind(events, telemetry.EventFinish))
	}

	// Pool metrics surface the cache hit machine-readably.
	code, prom := getRaw(t, hs.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(string(prom), "serve_jobs_fully_cached_total 1") {
		t.Fatalf("pool metrics missing full-cache-hit counter:\n%.400s", prom)
	}
}

// TestMidShardResume pins site-granular resume: a worker that posts only
// part of a shard's verdicts and then goes silent forfeits its lease, and
// the next leaseholder is told which sites are settled and simulates only
// the rest — converging on the same byte-identical report.
func TestMidShardResume(t *testing.T) {
	spec := quickSpec()
	want := directReport(t, spec)

	srv, hs := startServer(t, Config{ShardSize: 7, Lease: 30 * time.Millisecond})
	st := submit(t, hs.URL, spec, "")

	// Lease the first shard and settle only part of it by hand, playing a
	// worker that dies mid-shard.
	var lease Lease
	body, _ := json.Marshal(LeaseRequest{Worker: "doomed"})
	resp, err := http.Post(hs.URL+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: %v %v", err, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatalf("lease decode: %v", err)
	}
	resp.Body.Close()
	if len(lease.Settled) != 0 {
		t.Fatalf("fresh lease reports %d settled sites", len(lease.Settled))
	}

	// Simulate the leased shard locally to get honest verdicts, then post
	// only the first two.
	c, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sub := c.Sites[lease.Shard.Lo:lease.Shard.Hi]
	rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, sub, c.Budget, core.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunCampaignOpts: %v", err)
	}
	batch := VerdictBatch{Worker: "doomed", Golden: rep.Golden, GoldenOK: rep.GoldenOK}
	for k := 0; k < 2; k++ {
		r := rep.Results[k]
		batch.Verdicts = append(batch.Verdicts, Verdict{
			I: lease.Shard.Lo + k, Sig: r.Signature,
			Detected: r.Detected, Crashed: r.Crashed, Panicked: r.Panicked,
		})
	}
	body, _ = json.Marshal(batch)
	resp, err = http.Post(fmt.Sprintf("%s/v1/jobs/%s/shards/%s/verdicts", hs.URL, lease.Job, lease.Shard),
		"application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	// Let the lease expire, then drain the job with a healthy worker.
	time.Sleep(60 * time.Millisecond)
	w := &Worker{Server: hs.URL, Name: "healthy", Workers: 2, Drain: true}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}

	var done JobStatus
	getJSON(t, hs.URL, "/v1/jobs/"+st.ID, &done)
	if done.State != "done" {
		t.Fatalf("job state %q (error %q), want done", done.State, done.Error)
	}
	code, got := getRaw(t, hs.URL, "/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from direct run (code %d)", code)
	}

	// The healthy worker must have been told about the settled prefix: the
	// shard was re-leased after expiry, so the expiry counter moved.
	var snap bytes.Buffer
	if err := srv.reg.WriteProm(&snap); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if !strings.Contains(snap.String(), "serve_shards_expired_total 1") {
		t.Fatalf("no lease expiry recorded:\n%.400s", snap.String())
	}
}

// postPartialShard plays a worker that dies mid-shard: it leases a shard,
// simulates it locally for honest verdicts, and posts only the first n.
func postPartialShard(t *testing.T, base string, spec Spec, n int) {
	t.Helper()
	var lease Lease
	body, _ := json.Marshal(LeaseRequest{Worker: "doomed"})
	resp, err := http.Post(base+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: %v %v", err, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatalf("lease decode: %v", err)
	}
	resp.Body.Close()
	c, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sub := c.Sites[lease.Shard.Lo:lease.Shard.Hi]
	rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, sub, c.Budget, core.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunCampaignOpts: %v", err)
	}
	batch := VerdictBatch{Worker: "doomed", Golden: rep.Golden, GoldenOK: rep.GoldenOK}
	for k, r := range rep.Results[:n] {
		batch.Verdicts = append(batch.Verdicts, Verdict{
			I: lease.Shard.Lo + k, Sig: r.Signature,
			Detected: r.Detected, Crashed: r.Crashed, Panicked: r.Panicked,
		})
	}
	body, _ = json.Marshal(batch)
	resp, err = http.Post(fmt.Sprintf("%s/v1/jobs/%s/shards/%s/verdicts", base, lease.Job, lease.Shard),
		"application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch: %v %v", err, resp.Status)
	}
	resp.Body.Close()
}

// TestServerRestartResumes pins the "Server SIGKILL" contract of
// docs/SERVICE.md: verdicts journaled before the server goes away are
// cache hits when the same spec is resubmitted to a new server on the same
// store, and the resumed job converges on the direct run's report.
func TestServerRestartResumes(t *testing.T) {
	spec := quickSpec()
	want := directReport(t, spec)
	dir := t.TempDir()
	const posted = 3

	first, hs := startServer(t, Config{StoreDir: dir, ShardSize: 7})
	submit(t, hs.URL, spec, "")
	postPartialShard(t, hs.URL, spec, posted)
	hs.Close()
	if err := first.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, hs2 := startServer(t, Config{StoreDir: dir, ShardSize: 7})
	st := submit(t, hs2.URL, spec, "")
	if st.State != "running" || st.FromCache != posted || st.Simulated != 0 {
		t.Fatalf("resubmitted after restart: state %q fromCache %d simulated %d, want running/%d/0",
			st.State, st.FromCache, st.Simulated, posted)
	}
	w := &Worker{Server: hs2.URL, Name: "healthy", Workers: 2, Drain: true}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	var done JobStatus
	getJSON(t, hs2.URL, "/v1/jobs/"+st.ID, &done)
	if done.State != "done" || done.Simulated != done.Sites-posted {
		t.Fatalf("job state %q (error %q) simulated %d of %d, want done with %d simulated",
			done.State, done.Error, done.Simulated, done.Sites, done.Sites-posted)
	}
	code, got := getRaw(t, hs2.URL, "/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("report after restart differs from direct run (code %d)", code)
	}
}

// TestGoldenMismatchFailsJob pins the determinism contract: a worker whose
// golden does not reproduce the already-bound one fails the job loudly
// instead of mixing verdicts from two environments.
func TestGoldenMismatchFailsJob(t *testing.T) {
	spec := quickSpec()
	_, hs := startServer(t, Config{ShardSize: 7})
	st := submit(t, hs.URL, spec, "")

	post := func(golden uint32, i int) int {
		var lease Lease
		body, _ := json.Marshal(LeaseRequest{Worker: "w"})
		resp, err := http.Post(hs.URL+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("lease: %v %v", err, resp.Status)
		}
		json.NewDecoder(resp.Body).Decode(&lease)
		resp.Body.Close()
		batch := VerdictBatch{Worker: "w", Golden: golden, GoldenOK: true,
			Verdicts: []Verdict{{I: lease.Shard.Lo + i, Sig: golden + 1, Detected: true}}}
		body, _ = json.Marshal(batch)
		resp, err = http.Post(fmt.Sprintf("%s/v1/jobs/%s/shards/%s/verdicts", hs.URL, lease.Job, lease.Shard),
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(0xAAAA, 0); code != http.StatusOK {
		t.Fatalf("first batch: %d", code)
	}
	if code := post(0xBBBB, 1); code != http.StatusConflict {
		t.Fatalf("conflicting golden: code %d, want 409", code)
	}
	var done JobStatus
	getJSON(t, hs.URL, "/v1/jobs/"+st.ID, &done)
	if done.State != "failed" || done.Error == "" {
		t.Fatalf("job state %q error %q, want failed with reason", done.State, done.Error)
	}
}

// TestSubmitAttachesToRunningJob pins dedup: submitting a spec while its
// campaign is already running returns the running job instead of a new one.
func TestSubmitAttachesToRunningJob(t *testing.T) {
	spec := quickSpec()
	_, hs := startServer(t, Config{})
	a := submit(t, hs.URL, spec, "")
	b := submit(t, hs.URL, spec, "")
	if a.ID != b.ID {
		t.Fatalf("resubmission while running created a second job: %s vs %s", a.ID, b.ID)
	}
	var all []JobStatus
	getJSON(t, hs.URL, "/v1/jobs", &all)
	if len(all) != 1 {
		t.Fatalf("job list has %d entries, want 1", len(all))
	}
}
