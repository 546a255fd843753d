package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// finishedServer runs spec cold to completion on a new server over dir
// and returns the server, its listener and the finished job's status.
func finishedServer(t *testing.T, dir string, spec Spec) (*Server, string, JobStatus) {
	t.Helper()
	srv, hs := startServer(t, Config{StoreDir: dir, ShardSize: 7})
	st := submit(t, hs.URL, spec, "")
	w := &Worker{Server: hs.URL, Name: "w1", Workers: 2, Drain: true}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	getJSON(t, hs.URL, "/v1/jobs/"+st.ID, &st)
	if st.State != "done" {
		t.Fatalf("cold job state %q (error %q), want done", st.State, st.Error)
	}
	return srv, hs.URL, st
}

// jobView is everything a client reads of a job, with the timestamps
// zeroed: the status document, report, per-job metrics and decoded
// events.
type jobView struct {
	status  JobStatus
	report  []byte
	metrics string
	events  []telemetry.Event
}

// viewJob reads job id's view from base, and requires every site event to
// carry the start event's timestamp.
func viewJob(t *testing.T, base, id string) jobView {
	t.Helper()
	var v jobView
	getJSON(t, base, "/v1/jobs/"+id, &v.status)
	v.status.ElapsedNs = 0
	_, v.report = getRaw(t, base, "/v1/jobs/"+id+"/report")
	_, prom := getRaw(t, base, "/v1/jobs/"+id+"/metrics")
	v.metrics = string(prom)
	_, raw := getRaw(t, base, "/v1/jobs/"+id+"/events")
	events, err := telemetry.DecodeEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("events of %s: %v", id, err)
	}
	start := events[0].T
	for k := range events {
		if events[k].Kind == telemetry.EventSite && events[k].T != start {
			t.Errorf("job %s: site event %d stamped %d, want the start time %d", id, events[k].Index, events[k].T, start)
		}
		events[k].T, events[k].ElapsedNs = 0, 0
	}
	v.events = events
	return v
}

// TestFullHitSharesFinishedResult pins the shared full hit: resubmitting
// the spec of a finished job shares that job's report bytes, verdict table
// and shard table, counts serve_results_reused_total, and reads exactly
// like the same full hit on a fresh server over the same store, which
// loads the journal and renders the report itself. Timestamps are the
// only difference.
func TestFullHitSharesFinishedResult(t *testing.T) {
	spec := quickSpec()
	want := directReport(t, spec)
	dir := t.TempDir()
	srv, base, first := finishedServer(t, dir, spec)

	hit := submit(t, base, spec, "")
	if hit.State != "done" || hit.Simulated != 0 || hit.FromCache != hit.Sites {
		t.Fatalf("resubmission: state %q simulated %d fromCache %d of %d, want a full hit",
			hit.State, hit.Simulated, hit.FromCache, hit.Sites)
	}
	srv.mu.Lock()
	a, b := srv.jobs[first.ID], srv.jobs[hit.ID]
	shared := sameBytes(a.report, b.report) && a.journal == b.journal &&
		len(b.shards) > 0 && &a.shards[0] == &b.shards[0]
	srv.mu.Unlock()
	if !shared {
		t.Error("the full hit does not share the finished job's report, verdict table and shards")
	}
	if n := srv.met.resultsReused.Value(); n != 1 {
		t.Errorf("serve_results_reused_total = %d, want 1", n)
	}
	_, prom := getRaw(t, base, "/metrics")
	if !strings.Contains(string(prom), "serve_results_reused_total 1\n") {
		t.Error("pool /metrics lacks serve_results_reused_total 1")
	}

	// A fresh server over the same store takes the store path. Another
	// spec submitted first makes the full hit its second job too, so the
	// job IDs match.
	fresh, hs := startServer(t, Config{StoreDir: dir, ShardSize: 7})
	submit(t, hs.URL, Spec{Routine: "forwarding", Strategy: "plain", BitStep: 8}, "")
	loaded := submit(t, hs.URL, spec, "")
	if n := fresh.met.resultsReused.Value(); n != 0 || loaded.State != "done" {
		t.Fatalf("fresh server: state %q, serve_results_reused_total %d; want done and 0", loaded.State, n)
	}
	got, ref := viewJob(t, base, hit.ID), viewJob(t, hs.URL, loaded.ID)
	if !bytes.Equal(got.report, want) {
		t.Error("shared report differs from the direct run")
	}
	if !reflect.DeepEqual(got.status, ref.status) {
		t.Errorf("status:\nshared %+v\nstore  %+v", got.status, ref.status)
	}
	if !bytes.Equal(got.report, ref.report) {
		t.Error("report differs from the store path's")
	}
	if got.metrics != ref.metrics {
		t.Errorf("per-job metrics:\nshared:\n%s\nstore:\n%s", got.metrics, ref.metrics)
	}
	if !reflect.DeepEqual(got.events, ref.events) {
		t.Errorf("events differ from the store path's: %d vs %d events", len(got.events), len(ref.events))
	}
	if n := telemetry.CountKind(got.events, telemetry.EventSite); n != hit.Sites {
		t.Errorf("%d site events, want %d", n, hit.Sites)
	}
}

// sameBytes reports whether a and b are the same non-empty bytes in
// memory, not just equal ones.
func sameBytes(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// TestConcurrentResubmissionsShareOneResult resubmits a finished spec from
// several goroutines at once, each reading its job's report and events:
// every one is a full hit on the one shared result.
func TestConcurrentResubmissionsShareOneResult(t *testing.T) {
	spec := quickSpec()
	srv, base, first := finishedServer(t, t.TempDir(), spec)
	_, want := getRaw(t, base, "/v1/jobs/"+first.ID+"/report")

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(spec)
			resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			var st JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || st.State != "done" || st.Simulated != 0 {
				t.Errorf("submission %d: %v, state %q, %d simulated", k, err, st.State, st.Simulated)
				return
			}
			ids[k] = st.ID
			if _, got := getRaw(t, base, "/v1/jobs/"+st.ID+"/report"); !bytes.Equal(got, want) {
				t.Errorf("job %s: report differs from the finished job's", st.ID)
			}
			_, raw := getRaw(t, base, "/v1/jobs/"+st.ID+"/events")
			if events, err := telemetry.DecodeEvents(bytes.NewReader(raw)); err != nil ||
				telemetry.CountKind(events, telemetry.EventSite) != st.Sites {
				t.Errorf("job %s: events %v", st.ID, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := srv.met.resultsReused.Value(); got != n {
		t.Errorf("serve_results_reused_total = %d, want %d", got, n)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, id := range ids {
		if !sameBytes(srv.jobs[id].report, srv.jobs[first.ID].report) {
			t.Errorf("job %s renders its own report", id)
		}
	}
}

// TestFullHitStorePaths pins the cases a resubmission does not share a
// held result: a held job that failed, a running job (the submission
// attaches) and the first submission after a restart all take the
// store path, and serve_results_reused_total stays 0.
func TestFullHitStorePaths(t *testing.T) {
	spec := quickSpec()
	t.Run("failed", func(t *testing.T) {
		srv, hs := startServer(t, Config{ShardSize: 7})
		st := submit(t, hs.URL, spec, "")
		l := leaseAll(t, hs.URL, "w")[0]
		url := fmt.Sprintf("%s/v1/jobs/%s/shards/%s/verdicts", hs.URL, l.Job, l.Shard)
		for k, golden := range []uint32{0xAAAA, 0xBBBB} {
			batch := VerdictBatch{Worker: "w", Golden: golden, GoldenOK: true,
				Verdicts: []Verdict{{I: l.Shard.Lo + k, Sig: golden + 1, Detected: true}}}
			body, _ := json.Marshal(batch)
			postBody(t, url, body)
		}
		getJSON(t, hs.URL, "/v1/jobs/"+st.ID, &st)
		if st.State != "failed" {
			t.Fatalf("job state %q, want failed", st.State)
		}
		again := submit(t, hs.URL, spec, "")
		if again.ID == st.ID || again.State != "running" || again.FromCache != 1 {
			t.Errorf("resubmission: job %s state %q fromCache %d, want a new running job with the store's 1 verdict",
				again.ID, again.State, again.FromCache)
		}
		if n := srv.met.resultsReused.Value(); n != 0 {
			t.Errorf("serve_results_reused_total = %d, want 0", n)
		}
	})
	t.Run("running", func(t *testing.T) {
		srv, hs := startServer(t, Config{ShardSize: 7})
		a := submit(t, hs.URL, spec, "")
		b := submit(t, hs.URL, spec, "")
		if a.ID != b.ID || b.State != "running" || srv.met.resultsReused.Value() != 0 {
			t.Errorf("resubmission while running: job %s state %q, reused %d; want %s running, 0",
				b.ID, b.State, srv.met.resultsReused.Value(), a.ID)
		}
	})
	t.Run("restart", func(t *testing.T) {
		dir := t.TempDir()
		_, base, first := finishedServer(t, dir, spec)
		_, want := getRaw(t, base, "/v1/jobs/"+first.ID+"/report")
		srv, hs := startServer(t, Config{StoreDir: dir, ShardSize: 7})
		for k, reused := range []int64{0, 1} {
			st := submit(t, hs.URL, spec, "")
			if st.State != "done" || st.Simulated != 0 {
				t.Fatalf("submission %d after the restart: state %q, %d simulated", k+1, st.State, st.Simulated)
			}
			if _, got := getRaw(t, hs.URL, "/v1/jobs/"+st.ID+"/report"); !bytes.Equal(got, want) {
				t.Errorf("submission %d after the restart: report differs", k+1)
			}
			if n := srv.met.resultsReused.Value(); n != reused {
				t.Errorf("after submission %d: serve_results_reused_total = %d, want %d", k+1, n, reused)
			}
		}
	})
}

// TestLeaseSkipsFinishedJobs pins the lease scan over running jobs only:
// with finished jobs, a cold one and a full hit, submitted ahead of two
// running jobs, every lease comes from the older running job before any
// comes from the newer one, each in shard order.
func TestLeaseSkipsFinishedJobs(t *testing.T) {
	spec := quickSpec()
	srv, base, _ := finishedServer(t, t.TempDir(), spec)
	submit(t, base, spec, "")
	older := submit(t, base, Spec{Routine: "forwarding", Strategy: "plain", BitStep: 8}, "")
	newer := submit(t, base, Spec{Routine: "forwarding", Strategy: "tcm", BitStep: 8}, "")
	srv.mu.Lock()
	running := len(srv.running)
	srv.mu.Unlock()
	if running != 2 {
		t.Fatalf("%d running jobs listed, want 2", running)
	}
	var got []string
	for _, l := range leaseAll(t, base, "w") {
		got = append(got, fmt.Sprintf("%s/%s", l.Job, l.Shard))
	}
	var want []string
	for _, st := range []JobStatus{older, newer} {
		srv.mu.Lock()
		for _, sh := range srv.jobs[st.ID].shards {
			want = append(want, fmt.Sprintf("%s/%s", st.ID, sh.r))
		}
		srv.mu.Unlock()
	}
	if !slices.Equal(got, want) {
		t.Errorf("lease order:\n got %v\nwant %v", got, want)
	}
}

// liveHeap returns the bytes of the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// drainCold runs specs cold to completion through a new server over a
// fresh store. It returns the live heap with the empty server, the live
// heap with the server and its finished jobs but not their reports,
// nothing else of the run reachable, and the jobs' settled sites.
func drainCold(t *testing.T, specs []Spec) (empty, held uint64, sites int) {
	t.Helper()
	srv, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	empty = liveHeap()
	hs := httptest.NewServer(srv)
	for _, spec := range specs {
		submit(t, hs.URL, spec, "")
	}
	if err := (&Worker{Server: hs.URL, Name: "w1", Workers: 2, Drain: true}).Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	hs.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	srv.mu.Lock()
	for _, j := range srv.order {
		if j.state != jobDone {
			t.Fatalf("job %s: state %v", j.id, j.state)
		}
		sites += j.journal.SettledCount()
		j.report = nil
	}
	srv.mu.Unlock()
	held = liveHeap()
	runtime.KeepAlive(srv)
	return empty, held, sites
}

// maxHeldBytesPerSite bounds the live bytes finished jobs hold per settled
// site beyond their report bytes. A job keeps 8 bytes of verdict table, 16
// of settle log and 8 of universe per site, and a fixed share (job,
// journal, shard table) spread over its sites:
// TestFinishedJobsHoldLittlePerSite measures 54-76 bytes on a 2-CPU x86-64
// host, with or without the race detector. A server that stored a
// telemetry.Event per site, kept verdicts in a map and held each job's
// built campaign measured 719-738 bytes; any one of the three alone
// exceeds the bound.
const maxHeldBytesPerSite = 112

// TestFinishedJobsHoldLittlePerSite drains three cold multicore specs
// through an in-process server and bounds what their finished jobs hold
// beyond the report bytes that cache hits serve: the live heap the server
// keeps reachable, with the reports dropped, beyond what it holds empty,
// per settled site.
func TestFinishedJobsHoldLittlePerSite(t *testing.T) {
	specs := []Spec{
		{Routine: "forwarding", Strategy: "plain", Multicore: true, BitStep: 8},
		{Routine: "forwarding", Strategy: "cache", Multicore: true, BitStep: 8, Faults: "transition"},
		{Routine: "icu", Strategy: "tcm", Multicore: true, BitStep: 1},
	}
	drainCold(t, specs) // warms the process-wide caches the first run fills
	empty, held, sites := drainCold(t, specs)
	perSite := (float64(held) - float64(empty)) / float64(sites)
	t.Logf("%d sites: finished jobs hold %d B beyond their reports, %.1f B per site", sites, int64(held)-int64(empty), perSite)
	if perSite > maxHeldBytesPerSite {
		t.Errorf("finished jobs hold %.1f B per settled site beyond their reports, want at most %d", perSite, maxHeldBytesPerSite)
	}
}

// maxFullHitBytes bounds the live bytes one full-hit resubmission of a
// finished spec adds to the server: its job (which shares the finished
// job's build, verdict table, shard table and report), its ID, its done
// channel and its entries in the job table and the submission order.
// TestFullHitsHoldLittle measures 591-614 bytes per job on a 2-CPU x86-64
// host (598-664 with the race detector); a job that kept its own
// telemetry.Registry of six per-job metrics measured 1,343-1,364.
const maxFullHitBytes = 1000

// TestFullHitsHoldLittle resubmits a finished spec 200 times to an
// in-process server, each resubmission a full hit, and bounds the live
// heap each one adds. The server keeps every job for its life, so this is
// the growth per full hit.
func TestFullHitsHoldLittle(t *testing.T) {
	spec := quickSpec()
	srv, base, _ := finishedServer(t, t.TempDir(), spec)
	submit(t, base, spec, "") // warms the reuse path
	const n = 200
	before := liveHeap()
	for range n {
		if st := submit(t, base, spec, ""); st.State != "done" || st.Simulated != 0 {
			t.Fatalf("resubmission: state %q, %d simulated, want a full hit", st.State, st.Simulated)
		}
	}
	perJob := (float64(liveHeap()) - float64(before)) / n
	runtime.KeepAlive(srv)
	t.Logf("a full hit holds %.0f B", perJob)
	if perJob > maxFullHitBytes {
		t.Errorf("a full hit holds %.0f B, want at most %d", perJob, maxFullHitBytes)
	}
}
