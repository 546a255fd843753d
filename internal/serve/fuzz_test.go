package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fault"
)

// decodeSpec decodes body through the submit path's decode helper and
// returns the spec and the status the helper answered (200 when it
// accepted the body).
func decodeSpec(body []byte) (Spec, int) {
	var spec Spec
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if !decodeBody(rec, req, maxSpecBytes, "spec", &spec) {
		return spec, rec.Code
	}
	return spec, http.StatusOK
}

// FuzzSpec feeds arbitrary bytes to the submit path's decode, then to
// Spec.Normalized and Spec.Build. A body the decoder accepts holds exactly
// one JSON value. Normalized refuses a spec or returns a fixed point that
// round-trips through JSON, and Build refuses every spec Normalized
// refuses. A built campaign carries the normalized spec and a non-empty
// universe that its header counts, and building the raw spec gives the
// same header. The seeds are the service leg's spec, the tests' quick
// spec, an ICU single-core spec, the spec with every default omitted, and
// bodies and specs the server refuses; they run under plain `go test`.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"routine":"forwarding","core":0,"strategy":"cache","faults":"transition","bitstep":1}`,
		`{"routine":"forwarding","bitstep":8}`,
		`{"routine":"icu","strategy":"plain","bitstep":1}`,
		`{}`,
		`{"routine":"icu","bitstep":8} {"routine":"hdcu"}`,
		`{"routine":"forwarding","bitstep":8} garbage`,
		`{"worker":"w"} trailing`,
		`{"worker":"w","bogus":1}`,
		`{"strategy":"dram"}`,
		`{"routine":"hdcu","faults":"transition"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, code := decodeSpec(body)
		if code != http.StatusOK {
			if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused %q with status %d, want 400 or 413", body, code)
			}
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted %q, which is not exactly one JSON value", body)
		}
		norm, err := spec.Normalized()
		if err != nil {
			if _, err := spec.Build(); err == nil {
				t.Fatalf("%+v: Build accepts a spec Normalized refuses", spec)
			}
			return
		}
		if again, err := norm.Normalized(); err != nil || again != norm {
			t.Fatalf("%+v normalizes to %+v, and that to %+v (%v)", spec, norm, again, err)
		}
		blob, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		if back, code := decodeSpec(blob); code != http.StatusOK || back != norm {
			t.Fatalf("%+v round-trips through %s to %+v (status %d)", norm, blob, back, code)
		}
		c, err := norm.Build()
		if err != nil {
			if _, rawErr := spec.Build(); rawErr == nil {
				t.Fatalf("%+v builds, its normalized form fails: %v", spec, err)
			}
			return
		}
		if c.Spec != norm || len(c.Sites) == 0 || c.Header.Sites != len(c.Sites) {
			t.Fatalf("%+v builds spec %+v with %d sites, header counting %d", norm, c.Spec, len(c.Sites), c.Header.Sites)
		}
		raw, err := spec.Build()
		if err != nil || raw.Header != c.Header {
			t.Fatalf("%+v builds header %+v (%v), its normalized form %+v", spec, raw.Header, err, c.Header)
		}
	})
}

// call sends body to s as method path and returns the reply's status
// and body.
func call(s *Server, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// verdictsPath is the verdict-batch URL path of lease l's shard.
func verdictsPath(l Lease) string {
	return fmt.Sprintf("/v1/jobs/%s/shards/%s/verdicts", l.Job, l.Shard)
}

// leasedJob boots a server over dir, submits the quick spec and leases
// one shard of its job.
func leasedJob(t testing.TB, dir string) (*Server, JobStatus, Lease) {
	t.Helper()
	s, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(quickSpec())
	code, reply := call(s, http.MethodPost, "/v1/jobs", spec)
	var st JobStatus
	if err := json.Unmarshal(reply, &st); err != nil || code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, reply)
	}
	req, _ := json.Marshal(LeaseRequest{Worker: "w"})
	code, reply = call(s, http.MethodPost, "/v1/lease", req)
	var l Lease
	if err := json.Unmarshal(reply, &l); err != nil || code != http.StatusOK {
		t.Fatalf("lease: %d %s", code, reply)
	}
	return s, st, l
}

// workerPost returns the first verdict batch a real Worker posts for the
// shard a fresh quick-spec job leases first, as it went over the wire,
// and that shard.
func workerPost(f *testing.F) ([]byte, fault.ShardRange) {
	s, _, first := leasedJob(f, f.TempDir())
	defer s.Close()
	var mu sync.Mutex
	var post []byte
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == verdictsPath(first) {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			mu.Lock()
			if post == nil {
				post = body
			}
			mu.Unlock()
		}
		s.ServeHTTP(w, r)
	}))
	defer hs.Close()
	w := &Worker{Server: hs.URL, Name: "w", Workers: 1, Drain: true}
	if _, err := w.RunLease(context.Background(), first); err != nil {
		f.Fatal(err)
	}
	if post == nil {
		f.Fatal("the worker posted no verdicts for its first shard")
	}
	return post, first.Shard
}

// FuzzVerdictBatch posts arbitrary bytes as a verdict batch for a shard
// of a fresh quick-spec job, one job per input, so a golden one input
// binds cannot fail the job for the next. The reply is 200, 400, 409 or
// 413; a refused batch leaves the journal byte for byte as it was; every
// journaled verdict lies inside the shard and agrees with the journal's
// bound golden (detected exactly when crashed or its signature differs,
// signature 0 when crashed, crashed when panicked); and the job's settled
// count does not fall and counts exactly the journaled verdicts. The
// seeds are a real Worker's post, the batches TestVerdictBatchValidation
// refuses, a batch followed by a second JSON value, a batch with an
// unknown field and a panicked verdict with a long stack; they run under
// plain `go test`.
func FuzzVerdictBatch(f *testing.F) {
	post, shard := workerPost(f)
	f.Add(post)
	_, refused := refusedBatches(shard.Lo, shard.Hi)
	for _, body := range refused {
		f.Add(body)
	}
	f.Add(append(append([]byte(nil), post...), post...))
	f.Add([]byte(`{"worker":"w","golden":1,"golden_ok":true,"verdicts":[{"i":0,"sig":1}],"bogus":1}`))
	panicked, _ := json.Marshal(panickedBatch(f, 1, shard.Lo))
	f.Add(panicked)

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		s, st, l := leasedJob(t, dir)
		defer s.Close()
		journal := filepath.Join(dir, st.Key+".journal")
		settled := func() int {
			var now JobStatus
			if _, reply := call(s, http.MethodGet, "/v1/jobs/"+st.ID, nil); json.Unmarshal(reply, &now) != nil {
				t.Fatalf("status: %s", reply)
			}
			return now.Settled
		}
		before, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		was := settled()

		code, reply := call(s, http.MethodPost, verdictsPath(l), body)
		switch code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%q: status %d: %s", body, code, reply)
		}
		after, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK && !bytes.Equal(before, after) {
			t.Fatalf("%q: refused with %d, the journal grew from %d to %d bytes", body, code, len(before), len(after))
		}

		s.mu.Lock()
		j := s.jobs[st.ID].journal
		s.mu.Unlock()
		sig, _, bound := j.Golden()
		journaled := 0
		for i := range st.Sites {
			res, _, _, ok := j.Settled(i)
			if !ok {
				continue
			}
			journaled++
			switch {
			case !bound:
				t.Fatalf("%q: verdict %d journaled without a bound golden", body, i)
			case i < l.Shard.Lo || i >= l.Shard.Hi:
				t.Fatalf("%q: verdict %d journaled outside shard %s", body, i, l.Shard)
			case res.Detected != (res.Crashed || res.Signature != sig),
				res.Crashed && res.Signature != 0,
				res.Panicked && !res.Crashed:
				t.Fatalf("%q: journaled verdict %d %+v disagrees with golden %08x", body, i, res, sig)
			}
		}
		if now := settled(); now < was || now != journaled {
			t.Fatalf("%q: settled count %d after %d, with %d verdicts journaled", body, now, was, journaled)
		}
	})
}
