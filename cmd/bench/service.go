package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// service is an in-process campaign service: a serve.Server over a fresh
// temporary store behind an httptest loopback listener, a client limited
// to two connections, and a draining serve.Worker.
type service struct {
	srv    *serve.Server
	hs     *httptest.Server
	tp     *http.Transport
	client *http.Client
	worker *serve.Worker
	pool   *telemetry.Registry // the server's pool metrics
	dir    string
}

// jobTimeout bounds one cold job's drain, so a stuck service fails the
// job instead of hanging the benchmark.
const jobTimeout = 2 * time.Minute

// startService boots a server over a new store. wrap, when non-nil,
// receives every HTTP call of the submitter and the worker; wreg, when
// non-nil, is the worker's registry (shared with its campaigns' engine
// metrics).
func startService(workers int, wrap *timingTransport, wreg *telemetry.Registry) (*service, error) {
	dir, err := os.MkdirTemp("", "bench-store-")
	if err != nil {
		return nil, err
	}
	pool := telemetry.NewRegistry()
	srv, err := serve.New(serve.Config{StoreDir: dir, Registry: pool})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	tp := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	var rt http.RoundTripper = tp
	if wrap != nil {
		wrap.base = tp
		rt = wrap
	}
	client := &http.Client{Transport: rt}
	hs := httptest.NewServer(srv)
	return &service{
		srv: srv, hs: hs, tp: tp, client: client, pool: pool, dir: dir,
		worker: &serve.Worker{Server: hs.URL, Name: "bench", Workers: workers,
			Drain: true, Client: client, Telemetry: wreg},
	}, nil
}

// close stops the listener, the server and the client, and deletes the
// store.
func (s *service) close() {
	s.hs.Close()
	_ = s.srv.Close()
	s.tp.CloseIdleConnections()
	_ = os.RemoveAll(s.dir)
}

// run submits spec and returns its report. A cold job must start running
// and is drained by the worker; a cached one must be done at submission
// without a single simulated site.
func (s *service) run(ctx context.Context, spec serve.Spec, cached bool) ([]byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var st serve.JobStatus
	if err := s.call(ctx, http.MethodPost, "/v1/jobs", body, &st); err != nil {
		return nil, err
	}
	switch {
	case cached && (st.State != "done" || st.Simulated != 0):
		return nil, fmt.Errorf("resubmission not a full cache hit: state %s, %d sites simulated", st.State, st.Simulated)
	case !cached && st.State != "running":
		return nil, fmt.Errorf("cold submission in state %s", st.State)
	case !cached:
		dctx, cancel := context.WithTimeout(ctx, jobTimeout)
		err := s.worker.Run(dctx)
		cancel()
		if err != nil {
			return nil, err
		}
	}
	var blob []byte
	err = s.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/report", nil, &blob)
	return blob, err
}

// call performs one API request. out is either *[]byte (raw body) or a
// value the JSON body decodes into.
func (s *service) call(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(blob))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = blob
		return nil
	}
	return json.Unmarshal(blob, out)
}

// httpCalls are the API calls the timing transport tells apart.
var httpCalls = []string{"submit", "lease", "verdicts", "complete", "report"}

// callName classifies a campaign-API request ("" for anything else).
func callName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case p == "/v1/lease":
		return "lease"
	case strings.HasSuffix(p, "/verdicts"):
		return "verdicts"
	case strings.HasSuffix(p, "/complete"):
		return "complete"
	case strings.HasSuffix(p, "/report"):
		return "report"
	}
	return ""
}

// timingTransport times every API call from request to the close of its
// response body, client-side, into a span and a latency histogram
// (bench_http_<call>_ns).
type timingTransport struct {
	base http.RoundTripper
	tr   *tracer
	reg  *telemetry.Registry
}

// RoundTrip implements http.RoundTripper.
func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := callName(req)
	if name == "" {
		return t.base.RoundTrip(req)
	}
	job, parent := t.tr.job()
	span := t.tr.start("http."+name, parent, job)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	done := func() {
		t.reg.Histogram("bench_http_" + name + "_ns").Observe(time.Since(t0).Nanoseconds())
		t.tr.end(span)
	}
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

// timedBody reports the end of a call when its body is closed.
type timedBody struct {
	io.ReadCloser
	done func()
}

// Close implements io.Closer.
func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done()
		b.done = nil
	}
	return err
}
