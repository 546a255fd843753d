package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// spy is a Server's handler wrapped to record every request path and to
// answer the first failVerdicts verdict posts with a 500 (math.MaxInt
// fails them all).
type spy struct {
	h http.Handler

	mu           sync.Mutex
	paths        []string
	failVerdicts int
}

func (s *spy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.paths = append(s.paths, r.URL.Path)
	fail := s.failVerdicts > 0 && strings.HasSuffix(r.URL.Path, "/verdicts")
	if fail {
		s.failVerdicts--
	}
	s.mu.Unlock()
	if fail {
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	s.h.ServeHTTP(w, r)
}

// count counts the recorded requests whose path ends in suffix.
func (s *spy) count(suffix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.paths {
		if strings.HasSuffix(p, suffix) {
			n++
		}
	}
	return n
}

// startSpied boots a Server over a fresh store behind a spy that fails
// the first failVerdicts verdict posts.
func startSpied(t *testing.T, cfg Config, failVerdicts int) (*httptest.Server, *spy) {
	t.Helper()
	cfg.StoreDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sp := &spy{h: s, failVerdicts: failVerdicts}
	hs := httptest.NewServer(sp)
	t.Cleanup(func() { hs.Close(); _ = s.Close() })
	return hs, sp
}

// TestWorkerStreamsJobThroughOneRun pins the worker's stream: one Drain
// worker drains a job cut into 7-site shards on one golden capture, with
// one lease call per shard plus the idle poll that ends the run, no
// completion call, and a report byte-identical to the direct run.
func TestWorkerStreamsJobThroughOneRun(t *testing.T) {
	spec := quickSpec()
	want := directReport(t, spec)
	hs, sp := startSpied(t, Config{ShardSize: 7}, 0)
	st := submit(t, hs.URL, spec, "")

	reg := telemetry.NewRegistry()
	w := &Worker{Server: hs.URL, Name: "w1", Workers: 2, Drain: true, Telemetry: reg}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	code, got := getRaw(t, hs.URL, "/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("report differs from the direct run (code %d)", code)
	}
	if n := reg.Counter("arena_golden_captures_total").Value(); n != 1 {
		t.Errorf("%d golden captures, want 1", n)
	}
	if n := sp.count("/v1/lease"); n != st.Shards+1 {
		t.Errorf("%d lease calls for %d shards, want %d", n, st.Shards, st.Shards+1)
	}
	if n := sp.count("/complete"); n != 0 {
		t.Errorf("worker made %d completion calls", n)
	}
}

// TestWorkerStreamsTwoSpecs pins the hand-over between jobs: one Drain
// run drains two jobs of different specs, the lease for the second spec
// ending the first job's stream and starting the second's, and both
// reports are byte-identical to their direct runs.
func TestWorkerStreamsTwoSpecs(t *testing.T) {
	specA, specB := quickSpec(), Spec{Routine: "forwarding", Strategy: "plain", BitStep: 8}
	hs, sp := startSpied(t, Config{ShardSize: 32}, 0)
	a := submit(t, hs.URL, specA, "")
	b := submit(t, hs.URL, specB, "")

	reg := telemetry.NewRegistry()
	w := &Worker{Server: hs.URL, Name: "w1", Workers: 2, Drain: true, Telemetry: reg}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	for _, job := range []struct {
		id   string
		spec Spec
	}{{a.ID, specA}, {b.ID, specB}} {
		code, got := getRaw(t, hs.URL, "/v1/jobs/"+job.id+"/report")
		if code != http.StatusOK || !bytes.Equal(got, directReport(t, job.spec)) {
			t.Fatalf("job %s: report differs from the direct run (code %d)", job.id, code)
		}
	}
	if n := reg.Counter("arena_golden_captures_total").Value(); n != 2 {
		t.Errorf("%d golden captures for two jobs, want 2", n)
	}
	if n, shards := sp.count("/v1/lease"), a.Shards+b.Shards; n != shards+1 {
		t.Errorf("%d lease calls for %d shards, want %d", n, shards, shards+1)
	}
}

// TestWorkerRefusesLeaseOfAnotherKey pins the worker's key check: a lease
// whose content key differs from the worker's own build of its spec, or
// carries none, fails its shard in worker_shard_errors_total and ends the
// stream, so the worker leases none of the job's other shards, and no
// verdict is posted or settled; with the server's key the same lease
// streams the job to a report byte-identical to the direct run.
func TestWorkerRefusesLeaseOfAnotherKey(t *testing.T) {
	spec := quickSpec()
	hs, sp := startSpied(t, Config{ShardSize: 7}, 0)
	st := submit(t, hs.URL, spec, "")
	if st.Shards < 2 {
		t.Fatalf("job has %d shards, want several", st.Shards)
	}
	reg := telemetry.NewRegistry()
	w := &Worker{Server: hs.URL, Name: "w1", Workers: 2, Telemetry: reg}
	lease, err := w.lease(context.Background(), nil)
	if err != nil || lease == nil || lease.Key != st.Key {
		t.Fatalf("lease %+v (%v), want one carrying the job's key %s", lease, err, st.Key)
	}
	for i, key := range []string{"0123456789abcdef", ""} {
		l := *lease
		l.Key = key
		_, err := w.RunLease(context.Background(), l)
		if err == nil || !strings.Contains(err.Error(), "content key") {
			t.Errorf("lease with key %q: RunLease returned %v, want a content key mismatch", key, err)
		}
		if n := reg.Counter("worker_shard_errors_total").Value(); n != int64(i+1) {
			t.Errorf("after %d refused leases worker_shard_errors_total = %d", i+1, n)
		}
	}
	if n := sp.count("/v1/lease"); n != 1 {
		t.Errorf("%d lease calls, want 1: a refused lease must end the stream", n)
	}
	if n := sp.count("/verdicts"); n != 0 {
		t.Errorf("%d verdict posts for refused leases, want 0", n)
	}
	var now JobStatus
	getJSON(t, hs.URL, "/v1/jobs/"+st.ID, &now)
	if now.Settled != 0 {
		t.Errorf("%d sites settled from refused leases, want 0", now.Settled)
	}

	if _, err := w.RunLease(context.Background(), *lease); err != nil {
		t.Fatalf("lease with the job's key: %v", err)
	}
	code, got := getRaw(t, hs.URL, "/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK || !bytes.Equal(got, directReport(t, spec)) {
		t.Fatalf("report differs from the direct run (code %d)", code)
	}
}

// TestDrainReturnsShardError pins that a Drain run reports a failed
// shard: when every verdict post answers 500, each shard fails after
// postAttempts posts, and Run drains the rest of the job and returns the
// error at the idle poll, with the job still running and nothing settled.
func TestDrainReturnsShardError(t *testing.T) {
	hs, sp := startSpied(t, Config{ShardSize: 7}, math.MaxInt)
	st := submit(t, hs.URL, quickSpec(), "")

	reg := telemetry.NewRegistry()
	w := &Worker{Server: hs.URL, Name: "w1", Workers: 2, Drain: true, Telemetry: reg}
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("Drain run returned %v, want the failed verdict post", err)
	}
	if n := reg.Counter("worker_shard_errors_total").Value(); n != int64(st.Shards) {
		t.Errorf("worker_shard_errors_total = %d, want one per shard, %d", n, st.Shards)
	}
	if n := sp.count("/verdicts"); n != st.Shards*postAttempts {
		t.Errorf("%d verdict posts for %d shards, want %d each", n, st.Shards, postAttempts)
	}
	var now JobStatus
	getJSON(t, hs.URL, "/v1/jobs/"+st.ID, &now)
	if now.State != "running" || now.Settled != 0 {
		t.Errorf("job %s with %d of %d sites settled, want running with none settled",
			now.State, now.Settled, now.Sites)
	}
}

// TestVerdictPostRetriesTransientFailure pins the poster's retry: when the
// first verdict post answers 500, its verdicts are sent again at the next
// flush, so the Drain run returns nil, no lease expires, and the report is
// byte-identical to the direct run.
func TestVerdictPostRetriesTransientFailure(t *testing.T) {
	spec := quickSpec()
	want := directReport(t, spec)
	hs, sp := startSpied(t, Config{ShardSize: 7}, 1)
	st := submit(t, hs.URL, spec, "")

	reg := telemetry.NewRegistry()
	w := &Worker{Server: hs.URL, Name: "w1", Workers: 2, Drain: true, Telemetry: reg}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("Drain run returned %v, want nil after the retried post", err)
	}
	sp.mu.Lock()
	injected := sp.failVerdicts == 0
	sp.mu.Unlock()
	if !injected {
		t.Fatal("no verdict post failed; the test needs one")
	}
	code, got := getRaw(t, hs.URL, "/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("report differs from the direct run (code %d)", code)
	}
	if n := reg.Counter("worker_shard_errors_total").Value(); n != 0 {
		t.Errorf("worker_shard_errors_total = %d, want 0", n)
	}
	code, prom := getRaw(t, hs.URL, "/metrics")
	if code != http.StatusOK || !strings.Contains(string(prom), "\nserve_shards_expired_total 0\n") {
		t.Errorf("pool metrics (code %d) do not read serve_shards_expired_total 0:\n%s", code, prom)
	}
}

// TestLeaseRenewsRunningShards pins the lease request's renewal: a shard
// its leaseholder lists as still running survives a lease scan past its
// deadline, and a listing by another worker renews nothing.
func TestLeaseRenewsRunningShards(t *testing.T) {
	srv, hs := startServer(t, Config{ShardSize: 64, Lease: 50 * time.Millisecond})
	submit(t, hs.URL, quickSpec(), "")
	lease := func(worker string, renew ...ShardRef) Lease {
		t.Helper()
		body, _ := json.Marshal(LeaseRequest{Worker: worker, Renew: renew})
		resp, err := http.Post(hs.URL+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("lease: %v %v", err, resp.Status)
		}
		defer resp.Body.Close()
		var l Lease
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			t.Fatalf("lease decode: %v", err)
		}
		return l
	}

	first := lease("w")
	running := ShardRef{Job: first.Job, Shard: first.Shard}
	time.Sleep(60 * time.Millisecond)
	if second := lease("w", running); second.Shard == first.Shard {
		t.Fatalf("a shard its leaseholder lists as running was re-leased")
	}
	if n := srv.met.shardsExpired.Value(); n != 0 {
		t.Fatalf("%d leases expired, want none", n)
	}
	time.Sleep(60 * time.Millisecond)
	if third := lease("x", running); third.Shard != first.Shard {
		t.Fatalf("leased %s, want the expired %s", third.Shard, first.Shard)
	}
	if n := srv.met.shardsExpired.Value(); n != 1 {
		t.Fatalf("%d leases expired, want 1", n)
	}
}
