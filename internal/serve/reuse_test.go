package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// TestResubmitReusesBuiltCampaign pins build reuse on submission: a spec
// the server already holds a job for — finished, and equal only after
// normalization — gets that job's build (spec, header and the universe,
// shared in memory) instead of a new Spec.Build, counted in
// serve_builds_reused_total, and its report stays byte-identical to the
// direct run.
func TestResubmitReusesBuiltCampaign(t *testing.T) {
	spec := quickSpec()
	want := directReport(t, spec)
	srv, hs := startServer(t, Config{ShardSize: 64})
	first := submit(t, hs.URL, spec, "")
	w := &Worker{Server: hs.URL, Name: "w1", Workers: 2, Drain: true}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}

	// The same spec, then one that differs only by spelling out defaults.
	alias := Spec{Routine: "forwarding", Strategy: "cache", BitStep: 8, Faults: "stuckat"}
	for k, s := range []Spec{spec, alias} {
		st := submit(t, hs.URL, s, "")
		if st.State != "done" || st.Simulated != 0 {
			t.Fatalf("resubmission %d: state %q simulated %d, want a full cache hit", k+1, st.State, st.Simulated)
		}
		srv.mu.Lock()
		a, b := srv.jobs[st.ID].build, srv.jobs[first.ID].build
		reused := a.spec == b.spec && a.header == b.header && &a.sites[0] == &b.sites[0]
		srv.mu.Unlock()
		if !reused {
			t.Errorf("resubmission %d built its own campaign", k+1)
		}
		if got := srv.met.buildsReused.Value(); got != int64(k+1) {
			t.Errorf("after resubmission %d: serve_builds_reused_total = %d", k+1, got)
		}
		if got := srv.met.buildNs.Count(); got != 1 {
			t.Errorf("after resubmission %d: %d builds observed, want the first submission's only", k+1, got)
		}
		code, got := getRaw(t, hs.URL, "/v1/jobs/"+st.ID+"/report")
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("resubmission %d: report differs from the direct run (code %d)", k+1, code)
		}
	}
}

// leaseAll leases every pending shard as worker name.
func leaseAll(t *testing.T, base, name string) []Lease {
	t.Helper()
	var out []Lease
	for {
		body, _ := json.Marshal(LeaseRequest{Worker: name})
		resp, err := http.Post(base+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if resp.StatusCode == http.StatusNoContent {
			resp.Body.Close()
			return out
		}
		var l Lease
		err = json.NewDecoder(resp.Body).Decode(&l)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("lease decode: %v", err)
		}
		out = append(out, l)
	}
}

// TestWorkerHoldsOneCampaign pins the worker's campaign lifetime: fed
// leases of two specs in turn, it builds a campaign and captures its
// golden run once per RunLease and keeps none between them, and both
// jobs' reports stay byte-identical to the direct runs.
func TestWorkerHoldsOneCampaign(t *testing.T) {
	specA, specB := quickSpec(), Spec{Routine: "forwarding", Strategy: "plain", BitStep: 8}
	_, hs := startServer(t, Config{ShardSize: 56})
	a := submit(t, hs.URL, specA, "")
	b := submit(t, hs.URL, specB, "")
	leases := leaseAll(t, hs.URL, "w1")
	byJob := map[string][]Lease{}
	for _, l := range leases {
		byJob[l.Job] = append(byJob[l.Job], l)
	}
	la, lb := byJob[a.ID], byJob[b.ID]
	if len(la) != 3 || len(lb) != 3 {
		t.Fatalf("leased %d and %d shards, want 3 each", len(la), len(lb))
	}
	order := []Lease{la[0], lb[0], la[1], la[2], lb[1], lb[2]}

	reg := telemetry.NewRegistry()
	w := &Worker{Server: hs.URL, Name: "w1", Workers: 2, Telemetry: reg}
	for i, l := range order {
		if next, err := w.RunLease(context.Background(), l); err != nil || next != nil {
			t.Fatalf("shard %d: next lease %v, error %v", i, next, err)
		}
	}
	if got := reg.Counter("arena_golden_captures_total").Value(); got != int64(len(order)) {
		t.Errorf("%d golden captures for %d RunLease calls", got, len(order))
	}

	w.Drain = true
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
}

// postBody posts raw bytes and returns the status code.
func postBody(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRequestBodyLimits pins the body rules of the three decoding POST
// handlers: an over-limit submit, lease or verdict batch gets 413, and a
// body holding more than one JSON value, data after its value or a field
// the request does not have gets 400. No refused body creates a job or a
// lease, and the refused batches leave the job's journal byte for byte
// unchanged.
func TestRequestBodyLimits(t *testing.T) {
	dir := t.TempDir()
	_, hs := startServer(t, Config{StoreDir: dir, ShardSize: 64})
	st := submit(t, hs.URL, quickSpec(), "")
	if st.Shards < 2 {
		t.Fatalf("%d shard(s); the test needs one left pending", st.Shards)
	}
	leaseReq, _ := json.Marshal(LeaseRequest{Worker: "w"})
	resp, err := http.Post(hs.URL+"/v1/lease", "application/json", bytes.NewReader(leaseReq))
	if err != nil {
		t.Fatal(err)
	}
	var l Lease
	err = json.NewDecoder(resp.Body).Decode(&l)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	verdicts := fmt.Sprintf("%s/v1/jobs/%s/shards/%s/verdicts", hs.URL, l.Job, l.Shard)
	batch := VerdictBatch{Worker: "w", Golden: 1, GoldenOK: true,
		Verdicts: []Verdict{{I: l.Shard.Lo, Sig: 2, Detected: true}}}
	body, _ := json.Marshal(batch)
	if code := postBody(t, verdicts, body); code != http.StatusOK {
		t.Fatalf("small batch: %d", code)
	}
	journal := filepath.Join(dir, st.Key+".journal")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}

	pad := strings.Repeat("x", maxBatchBytes)
	huge := batch
	huge.Verdicts = []Verdict{{I: l.Shard.Lo + 1, Crashed: true, Detected: true, Panicked: true, Msg: pad}}
	hugeBatch, _ := json.Marshal(huge)
	hugeSpec, _ := json.Marshal(Spec{Routine: pad[:maxSpecBytes]})
	hugeLease, _ := json.Marshal(LeaseRequest{Worker: pad[:maxLeaseBytes]})
	spec, _ := json.Marshal(quickSpec())
	next := batch
	next.Verdicts = []Verdict{{I: l.Shard.Lo + 1, Sig: 2, Detected: true}}
	nextBatch, _ := json.Marshal(next)
	for _, c := range []struct {
		name, url string
		body      []byte
		want      int
	}{
		{"over-limit submit", hs.URL + "/v1/jobs", hugeSpec, http.StatusRequestEntityTooLarge},
		{"over-limit lease", hs.URL + "/v1/lease", hugeLease, http.StatusRequestEntityTooLarge},
		{"over-limit verdicts", verdicts, hugeBatch, http.StatusRequestEntityTooLarge},
		{"two specs", hs.URL + "/v1/jobs", []byte(`{"routine":"icu","bitstep":8} {"routine":"hdcu"}`), http.StatusBadRequest},
		{"spec and garbage", hs.URL + "/v1/jobs", append(spec, " garbage"...), http.StatusBadRequest},
		{"lease and trailing data", hs.URL + "/v1/lease", []byte(`{"worker":"w"} trailing`), http.StatusBadRequest},
		{"lease with an unknown field", hs.URL + "/v1/lease", []byte(`{"worker":"w","bogus":1}`), http.StatusBadRequest},
		{"two batches", verdicts, append(append(nextBatch, ' '), nextBatch...), http.StatusBadRequest},
		{"batch with an unknown field", verdicts, append(nextBatch[:len(nextBatch)-1], `,"bogus":1}`...), http.StatusBadRequest},
	} {
		if code := postBody(t, c.url, c.body); code != c.want {
			t.Errorf("%s (%d bytes): %d, want %d", c.name, len(c.body), code, c.want)
		}
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a refused verdict batch changed the journal")
	}
	var now JobStatus
	getJSON(t, hs.URL, "/v1/jobs/"+st.ID, &now)
	if now.Simulated != 1 {
		t.Errorf("job counts %d simulated sites, want the small batch's 1", now.Simulated)
	}
	var jobs []JobStatus
	getJSON(t, hs.URL, "/v1/jobs", &jobs)
	if len(jobs) != 1 {
		t.Errorf("%d jobs after the refused submissions, want 1", len(jobs))
	}
	if n := len(leaseAll(t, hs.URL, "w2")); n != st.Shards-1 {
		t.Errorf("%d of %d shards left to lease after the refused lease requests, want %d", n, st.Shards, st.Shards-1)
	}
}

// TestVerdictBatchValidation pins the verdict handler's 400 answers: a
// batch holding a verdict outside the shard, one whose detected flag
// contradicts its signature, a crashed verdict with a non-zero signature
// or a panicked verdict that is not crashed is refused whole, valid
// verdicts and golden included, and leaves the journal byte for byte
// unchanged.
func TestVerdictBatchValidation(t *testing.T) {
	dir := t.TempDir()
	_, hs := startServer(t, Config{StoreDir: dir, ShardSize: 64})
	st := submit(t, hs.URL, quickSpec(), "")
	l := leaseAll(t, hs.URL, "w")[0]
	url := fmt.Sprintf("%s/v1/jobs/%s/shards/%s/verdicts", hs.URL, l.Job, l.Shard)
	journal := filepath.Join(dir, st.Key+".journal")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}

	names, bodies := refusedBatches(l.Shard.Lo, l.Shard.Hi)
	for k, body := range bodies {
		if code := postBody(t, url, body); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", names[k], code)
		}
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("refused verdict batches changed the journal from %d to %d bytes", len(before), len(after))
	}
	var now JobStatus
	getJSON(t, hs.URL, "/v1/jobs/"+st.ID, &now)
	if now.Settled != 0 {
		t.Errorf("job settles %d sites, want none", now.Settled)
	}
}

// refusedBatches returns the bodies of the verdict batches the handler
// refuses whole for the shard [lo, hi), with what is wrong with each: beside
// a valid verdict, each holds one outside the shard, one whose detected
// flag contradicts its signature, a crashed one with a non-zero signature
// or a panicked one that is not crashed.
func refusedBatches(lo, hi int) (names []string, bodies [][]byte) {
	const golden = 0x1234
	for _, c := range []struct {
		name string
		bad  Verdict
	}{
		{"outside the shard", Verdict{I: hi, Sig: golden}},
		{"detected inconsistent", Verdict{I: lo, Sig: golden, Detected: true}},
		{"crashed with a signature", Verdict{I: lo, Sig: 7, Detected: true, Crashed: true}},
		{"panicked but not crashed", Verdict{I: lo, Sig: 7, Detected: true, Panicked: true}},
	} {
		body, _ := json.Marshal(VerdictBatch{Worker: "w", Golden: golden, GoldenOK: true,
			Verdicts: []Verdict{{I: lo + 1, Sig: golden}, c.bad}})
		names, bodies = append(names, c.name), append(bodies, body)
	}
	return names, bodies
}

// deepPanic panics depth frames down, with a runtime error under a long
// message, so the recovered stack is as long as the Go runtime prints.
func deepPanic(depth int) {
	if depth > 0 {
		deepPanic(depth - 1)
		return
	}
	var empty []int
	defer func() {
		panic(fmt.Sprintf("%s: %v", strings.Repeat("arena core0: fallback run failed ", 32), recover()))
	}()
	_ = empty[depth]
}

// panickedBatch is a batch of n panicked verdicts for the sites from lo
// on, each carrying the message and stack the engine's recover boundary
// records for a deep panic, under the golden of that simulation.
func panickedBatch(t testing.TB, n, lo int) VerdictBatch {
	t.Helper()
	run := func(p fault.Plane) (uint32, bool) {
		if p == fault.None {
			return 1, true
		}
		deepPanic(1000)
		return 0, true
	}
	rep, err := fault.Simulate(make([]fault.Site, n), []fault.RunFunc{run}, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Anomalies) != n {
		t.Fatalf("%d anomalies, want %d", len(rep.Anomalies), n)
	}
	batch := VerdictBatch{Worker: "w", Golden: rep.Golden, GoldenOK: rep.GoldenOK}
	for k, a := range rep.Anomalies {
		batch.Verdicts = append(batch.Verdicts, Verdict{I: lo + k, Detected: true,
			Crashed: true, Panicked: true, Msg: a.Msg, Stack: a.Stack})
	}
	return batch
}

// TestVerdictPosterBatchesAtMostBatchSize pins the poster's half of the
// batch limit: a queue that outgrew one batch while a post was in flight
// goes out as requests of at most batchSize verdicts, in settle order.
func TestVerdictPosterBatchesAtMostBatchSize(t *testing.T) {
	var mu sync.Mutex
	var sizes, posted []int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b VerdictBatch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			t.Errorf("decoding batch: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		sizes = append(sizes, len(b.Verdicts))
		for _, v := range b.Verdicts {
			posted = append(posted, v.I)
		}
	}))
	defer ts.Close()
	p := &verdictPoster{w: &Worker{Server: ts.URL}, ctx: context.Background(), path: "/verdicts",
		wake: make(chan struct{}, 1)}
	n := 2*batchSize + 5
	for i := range n {
		p.add(Verdict{I: i})
	}
	p.flush()
	if p.err != nil {
		t.Fatal(p.err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []int{batchSize, batchSize, 5}; !slices.Equal(sizes, want) {
		t.Errorf("posted batches of %v verdicts, want %v", sizes, want)
	}
	if len(posted) != n || !slices.IsSorted(posted) {
		t.Errorf("posted %d verdicts out of settle order, want %d in order", len(posted), n)
	}
}

// TestWorstCaseVerdictBatchFits pins the headroom of the verdict-batch
// limit for the protocol's worst case, which a Worker (no Msg or Stack)
// never reaches: batchSize panicked verdicts, each carrying the message
// and stack the engine's recover boundary records for a deep panic,
// encode to under a quarter of maxBatchBytes and are accepted whole.
func TestWorstCaseVerdictBatchFits(t *testing.T) {
	_, hs := startServer(t, Config{ShardSize: batchSize})
	st := submit(t, hs.URL, quickSpec(), "")
	l := leaseAll(t, hs.URL, "w")[0]
	body, _ := json.Marshal(panickedBatch(t, batchSize, l.Shard.Lo))
	t.Logf("worst-case batch: %d bytes, limit %d", len(body), maxBatchBytes)
	if 4*len(body) > maxBatchBytes {
		t.Errorf("worst-case batch is %d bytes, more than a quarter of the %d-byte limit", len(body), maxBatchBytes)
	}
	url := fmt.Sprintf("%s/v1/jobs/%s/shards/%s/verdicts", hs.URL, l.Job, l.Shard)
	if code := postBody(t, url, body); code != http.StatusOK {
		t.Fatalf("worst-case batch: %d", code)
	}
	var now JobStatus
	getJSON(t, hs.URL, "/v1/jobs/"+st.ID, &now)
	if now.Simulated != batchSize {
		t.Errorf("job counts %d simulated sites, want %d", now.Simulated, batchSize)
	}
}
