package serve

import (
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parseJobMetrics parses a per-job /metrics body: each sample an integer
// after its "# TYPE" line, counters and only counters named *_total.
func parseJobMetrics(raw []byte) (map[string]int64, error) {
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines)%2 != 0 {
		return nil, fmt.Errorf("%d lines, want TYPE and sample pairs", len(lines))
	}
	m := map[string]int64{}
	for k := 0; k < len(lines); k += 2 {
		var name, kind string
		if n, _ := fmt.Sscanf(lines[k], "# TYPE %s %s", &name, &kind); n != 2 ||
			(kind == "counter") != strings.HasSuffix(name, "_total") || (kind != "counter" && kind != "gauge") {
			return nil, fmt.Errorf("line %d: %q is not the TYPE line of a counter *_total or a gauge", k+1, lines[k])
		}
		f := strings.Fields(lines[k+1])
		if len(f) != 2 || f[0] != name {
			return nil, fmt.Errorf("line %d: %q is not a sample of %s", k+2, lines[k+1], name)
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", k+2, err)
		}
		m[name] = v
	}
	return m, nil
}

// checkJobMetrics requires job id's per-job metrics, read from base, to
// equal its status fields, and returns the status.
func checkJobMetrics(t *testing.T, base, id, what string) JobStatus {
	t.Helper()
	code, raw := getRaw(t, base, "/v1/jobs/"+id+"/metrics")
	m, err := parseJobMetrics(raw)
	if code != http.StatusOK || err != nil {
		t.Fatalf("%s: /metrics answered %d: %v\n%s", what, code, err, raw)
	}
	var st JobStatus
	getJSON(t, base, "/v1/jobs/"+id, &st)
	want := map[string]int64{
		"serve_job_sites":                   int64(st.Sites),
		"serve_job_shards":                  int64(st.Shards),
		"serve_job_shards_done":             int64(st.ShardsDone),
		"serve_job_sites_from_cache_total":  int64(st.FromCache),
		"serve_job_sites_simulated_total":   int64(st.Simulated),
		"serve_job_verdicts_detected_total": int64(st.Detected),
	}
	if !maps.Equal(m, want) {
		t.Errorf("%s: per-job metrics %v, want the status's %v", what, m, want)
	}
	return st
}

// TestJobMetricsRenderStatus pins the per-job metrics, which render on
// read, to the job's status document: a partial hit at submission and
// once drained, a finished cold job, a full hit sharing a finished job's
// result and a full hit from the store. One read is taken beside the
// worker's first verdict post of the partial hit, while verdicts land; it
// must parse, and no count may exceed the universe.
func TestJobMetricsRenderStatus(t *testing.T) {
	spec := quickSpec()
	dir := t.TempDir()

	// A first server settles one whole shard into the store, then closes.
	srv0, hs0 := startServer(t, Config{StoreDir: dir, ShardSize: 7})
	submit(t, hs0.URL, spec, "")
	postPartialShard(t, hs0.URL, spec, 7)
	hs0.Close()
	_ = srv0.Close()

	srv, err := New(Config{StoreDir: dir, ShardSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	mid := make(chan []byte, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if job, _, ok := strings.Cut(r.URL.Path, "/shards/"); ok {
			once.Do(func() {
				go func() {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, job+"/metrics", nil))
					mid <- rec.Body.Bytes()
				}()
			})
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { hs.Close(); _ = srv.Close() })

	partial := submit(t, hs.URL, spec, "")
	st := checkJobMetrics(t, hs.URL, partial.ID, "partial hit at submission")
	if st.State != "running" || st.FromCache != 7 || st.ShardsDone != 1 {
		t.Fatalf("partial hit: state %q, %d from the store, %d shards done; want running, 7, 1",
			st.State, st.FromCache, st.ShardsDone)
	}
	if err := (&Worker{Server: hs.URL, Name: "w1", Workers: 2, Drain: true}).Run(t.Context()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	m, err := parseJobMetrics(<-mid)
	if err != nil {
		t.Fatalf("read beside a verdict post: %v", err)
	}
	for name, v := range m {
		if v < 0 || v > int64(partial.Sites) {
			t.Errorf("read beside a verdict post: %s %d outside 0..%d", name, v, partial.Sites)
		}
	}
	if st := checkJobMetrics(t, hs.URL, partial.ID, "drained partial hit"); st.State != "done" || st.Simulated != st.Sites-7 {
		t.Errorf("drained partial hit: state %q, %d simulated of %d", st.State, st.Simulated, st.Sites)
	}

	full := submit(t, hs.URL, spec, "")
	if st := checkJobMetrics(t, hs.URL, full.ID, "shared full hit"); st.FromCache != st.Sites {
		t.Errorf("shared full hit: %d of %d sites from the store", st.FromCache, st.Sites)
	}
	_, base := startServer(t, Config{StoreDir: dir, ShardSize: 7})
	loaded := submit(t, base.URL, spec, "")
	if st := checkJobMetrics(t, base.URL, loaded.ID, "full hit from the store"); st.FromCache != st.Sites {
		t.Errorf("full hit from the store: %d of %d sites from the store", st.FromCache, st.Sites)
	}

	_, coldBase, cold := finishedServer(t, t.TempDir(), spec)
	if st := checkJobMetrics(t, coldBase, cold.ID, "cold job"); st.Simulated != st.Sites {
		t.Errorf("cold job: %d of %d sites simulated", st.Simulated, st.Sites)
	}
}
