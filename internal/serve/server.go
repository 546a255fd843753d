package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Config configures a Server.
type Config struct {
	// StoreDir is the content-addressed store directory (required): one
	// verdict journal per campaign, named <key>.journal after
	// fault.JournalHeader.Key(). The key hashes program image, fault
	// universe, environment and universe size together, so two requests
	// share a journal exactly when they are the same pure function, and
	// ResumeJournal re-verifies the full header on open. A job's settled
	// state is its journal, which is what makes completed shards — and
	// whole campaigns — cache hits across jobs, server restarts and worker
	// losses.
	StoreDir string
	// ShardSize is the shard width in sites; <= 0 means DefaultShardSize.
	ShardSize int
	// Lease is the shard lease duration; <= 0 means DefaultLease. A leased
	// shard whose worker stays silent past the lease returns to the pending
	// pool and is re-leased with the already-settled sites excluded.
	Lease time.Duration
	// Registry receives the pool-level metrics and backs the server's
	// /metrics endpoint; nil means a fresh private registry.
	Registry *telemetry.Registry
}

// DefaultShardSize is the default shard width in sites.
const DefaultShardSize = 64

// DefaultLease is the default shard lease duration.
const DefaultLease = time.Minute

// Request body limits of the POST handlers that decode a body; a larger
// body is refused with 413 before the handler acts on it. A spec or lease
// request is a few hundred bytes. A Worker posts at most batchSize
// verdicts to a batch, each under 100 bytes, as it sends no panic message
// or stack. The protocol lets a panicked verdict carry both, and a
// goroutine stack, which the Go runtime caps at 100 frames, runs from a
// few KiB to a few tens of KiB, so the batch limit allows batchSize
// verdicts of 128 KiB each.
const (
	maxSpecBytes  = 64 << 10
	maxLeaseBytes = 64 << 10
	maxBatchBytes = batchSize << 17
)

// poolMetrics is the server's resolved pool-level metric handles.
type poolMetrics struct {
	jobsSubmitted   *telemetry.Counter
	jobsAttached    *telemetry.Counter
	jobsCompleted   *telemetry.Counter
	jobsFullyCached *telemetry.Counter
	jobsFailed      *telemetry.Counter
	jobsRunning     *telemetry.Gauge
	shardsLeased    *telemetry.Counter
	shardsExpired   *telemetry.Counter
	shardsCompleted *telemetry.Counter
	shardsCached    *telemetry.Counter
	verdicts        *telemetry.Counter
	sitesFromCache  *telemetry.Counter
	sitesSimulated  *telemetry.Counter
	buildsReused    *telemetry.Counter
	resultsReused   *telemetry.Counter
	buildNs         *telemetry.Histogram
}

// newPoolMetrics resolves the pool metric names on reg.
func newPoolMetrics(reg *telemetry.Registry) poolMetrics {
	return poolMetrics{
		jobsSubmitted:   reg.Counter("serve_jobs_submitted_total"),
		jobsAttached:    reg.Counter("serve_jobs_attached_total"),
		jobsCompleted:   reg.Counter("serve_jobs_completed_total"),
		jobsFullyCached: reg.Counter("serve_jobs_fully_cached_total"),
		jobsFailed:      reg.Counter("serve_jobs_failed_total"),
		jobsRunning:     reg.Gauge("serve_jobs_running"),
		shardsLeased:    reg.Counter("serve_shards_leased_total"),
		shardsExpired:   reg.Counter("serve_shards_expired_total"),
		shardsCompleted: reg.Counter("serve_shards_completed_total"),
		shardsCached:    reg.Counter("serve_shards_cached_total"),
		verdicts:        reg.Counter("serve_verdicts_received_total"),
		sitesFromCache:  reg.Counter("serve_sites_from_cache_total"),
		sitesSimulated:  reg.Counter("serve_sites_simulated_total"),
		buildsReused:    reg.Counter("serve_builds_reused_total"),
		resultsReused:   reg.Counter("serve_results_reused_total"),
		buildNs:         reg.Histogram("serve_campaign_build_ns"),
	}
}

// Server is the campaign job server: it accepts Spec submissions, folds the
// content-addressed store's verdicts in as cache hits, shards the remainder
// across leasing workers, and assembles reports byte-identical to a local
// faultsim run. All job state is guarded by one mutex; simulation happens
// only in workers, so the critical sections are bookkeeping-sized.
type Server struct {
	cfg Config
	reg *telemetry.Registry
	met poolMetrics
	mux *http.ServeMux

	mu      sync.Mutex
	seq     int
	jobs    map[string]*job // by job ID
	order   []*job          // submission order (listing)
	running []*job          // running jobs in submission order (lease scan)
	byKey   map[string]*job // running job per campaign key (dedup/attach)
	bySpec  map[Spec]*job   // latest job per normalized spec (build and result reuse)
}

// New builds a Server over cfg, opening (creating if needed) the store
// directory.
func New(cfg Config) (*Server, error) {
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = DefaultShardSize
	}
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	if err := os.MkdirAll(cfg.StoreDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		met:    newPoolMetrics(reg),
		jobs:   map[string]*job{},
		byKey:  map[string]*job{},
		bySpec: map[Spec]*job{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("POST /v1/jobs/{id}/shards/{shard}/verdicts", s.handleVerdicts)
	// Everything else is the standard telemetry surface: pool /metrics and
	// /debug/pprof — the same mux every campaign binary mounts.
	mux.Handle("/", telemetry.Handler(reg))
	s.mux = mux
	return s, nil
}

// ServeHTTP serves the campaign API plus the pool telemetry surface.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close releases the journals of still-running jobs (they stay resumable
// in the store) and ends their event streams.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, j := range s.running {
		if err := j.journal.Close(); err != nil && first == nil {
			first = err
		}
		j.closed = true
		j.wake()
	}
	return first
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// badBody answers a request whose body failed to decode: 413 when it
// exceeded its limit, 400 otherwise.
func badBody(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, tooBig.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "bad %s: %v", what, err)
}

// decodeBody decodes r's body, at most limit bytes, into v. The body must
// hold exactly one JSON value, white space around it aside, with no field
// v does not know. Otherwise decodeBody answers through badBody and
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("more than one JSON value")
		} else if err == io.EOF {
			return true
		}
	}
	badBody(w, what, err)
	return false
}

// handleSubmit is POST /v1/jobs: body is a Spec; the reply is the job's
// status document (201 for a new job, 200 when attaching to the running
// job of the same campaign). With ?wait=1 the reply is deferred until the
// job leaves the running state.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !decodeBody(w, r, maxSpecBytes, "spec", &spec) {
		return
	}
	spec, err := spec.Normalized()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A job the server holds for the same normalized spec already built
	// its campaign, and Build is a pure function of that spec.
	s.mu.Lock()
	prev := s.bySpec[spec]
	s.mu.Unlock()
	var b build
	if prev != nil {
		b = prev.build
		s.met.buildsReused.Inc()
	} else {
		// Build outside the lock: the golden traffic-recording run is
		// milliseconds of simulation, and it never touches job state.
		t0 := time.Now()
		c, err := spec.Build()
		s.met.buildNs.Observe(time.Since(t0).Nanoseconds())
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		b = build{spec: c.Spec, header: c.Header, sites: c.Sites}
	}

	s.mu.Lock()
	s.met.jobsSubmitted.Inc()
	key := b.header.Key()
	j, attached := s.byKey[key]
	status := http.StatusCreated
	switch {
	case attached:
		s.met.jobsAttached.Inc()
		status = http.StatusOK
	case prev != nil && prev.state == jobDone:
		j = s.reuseResult(prev)
	default:
		j, err = s.newJob(b, key)
		if err != nil {
			s.mu.Unlock()
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	done := j.done
	s.mu.Unlock()

	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-done:
		case <-r.Context().Done():
			return
		}
	}
	s.mu.Lock()
	st := j.status(time.Now())
	s.mu.Unlock()
	writeJSON(w, status, st)
}

// addJob registers a job for build b with the next job ID and its verdict
// table journal. Caller holds the server mutex.
func (s *Server) addJob(b build, key string, journal *fault.Journal) *job {
	s.seq++
	j := &job{
		build:   b,
		id:      fmt.Sprintf("j%03d-%s", s.seq, key[:8]),
		key:     key,
		journal: journal,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.bySpec[b.spec] = j
	return j
}

// newJob creates a job for build b, folding the store's journaled
// verdicts in as cache hits; a fully settled store completes the job
// before it ever reaches a worker. Caller holds the server mutex.
func (s *Server) newJob(b build, key string) (*job, error) {
	journal, err := fault.ResumeJournal(filepath.Join(s.cfg.StoreDir, key+".journal"), b.header)
	if err != nil {
		return nil, err
	}
	j := s.addJob(b, key, journal)
	for _, r := range fault.ShardRanges(len(b.sites), s.cfg.ShardSize) {
		j.shards = append(j.shards, &shard{r: r})
	}
	full := journal.SettledCount() == len(b.sites)
	_, _, bound := journal.Golden()
	// A full cache hit logs no settles: its implicit log is the universe.
	j.fullHit = full && bound
	if !j.fullHit {
		j.log = make([]settleEntry, 0, len(b.sites))
	}

	for i, site := range b.sites {
		if res, _, _, ok := journal.Settled(i); ok {
			res.Site = site
			j.settle(i, res, true)
		}
	}
	s.met.sitesFromCache.Add(int64(j.fromCache))
	for _, sh := range j.shards {
		if len(journal.Unsettled(sh.r.Lo, sh.r.Hi)) == 0 {
			sh.state = shardDone
			s.met.shardsCached.Inc()
		}
	}

	s.byKey[key] = j
	s.met.jobsRunning.Set(int64(len(s.byKey)))

	switch {
	case !full:
		s.running = append(s.running, j)
	case !bound:
		s.failJob(j, "store journal settles every site but binds no golden")
	default:
		// Full cache hit: every site is already journaled, so the job
		// completes at submission without a single simulated run.
		s.finishJob(j)
	}
	return j, nil
}

// reuseResult creates the job of a resubmission from prev, the finished
// job of the same normalized spec: it shares prev's build, closed verdict
// table, all-done shard table and rendered report, so it opens no journal
// and renders no report, and it is done at submission. Caller holds the
// server mutex; prev is done.
func (s *Server) reuseResult(prev *job) *job {
	j := s.addJob(prev.build, prev.key, prev.journal)
	j.shards = prev.shards
	j.report = prev.report
	j.fullHit = true
	j.fromCache = len(j.sites)
	j.detected = prev.detected
	s.met.sitesFromCache.Add(int64(len(j.sites)))
	s.met.shardsCached.Add(int64(len(j.shards)))
	s.met.resultsReused.Inc()
	s.completeJob(j)
	return j
}

// finishJob renders the report and moves j to done. Caller holds the
// server mutex; j is running with every site settled.
func (s *Server) finishJob(j *job) {
	blob, err := MarshalReport(j.assembleReport())
	if err != nil {
		s.failJob(j, "rendering report: %v", err)
		return
	}
	j.report = blob
	s.completeJob(j)
}

// completeJob moves j, whose report is rendered, to done. Caller holds the
// server mutex.
func (s *Server) completeJob(j *job) {
	j.state = jobDone
	j.finished = time.Now()
	j.wake()
	_ = j.journal.Close()
	s.retireJob(j)
	s.met.jobsCompleted.Inc()
	if j.simulated == 0 {
		s.met.jobsFullyCached.Inc()
	}
}

// failJob moves j to failed with the given reason. Caller holds the
// server mutex.
func (s *Server) failJob(j *job, format string, args ...any) {
	j.state = jobFailed
	j.err = fmt.Sprintf(format, args...)
	j.finished = time.Now()
	j.wake()
	_ = j.journal.Close()
	s.retireJob(j)
	s.met.jobsFailed.Inc()
}

// retireJob drops j from the running tables and closes its done channel.
// Caller holds the server mutex.
func (s *Server) retireJob(j *job) {
	if s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	if i := slices.Index(s.running, j); i >= 0 {
		s.running = slices.Delete(s.running, i, i+1)
	}
	s.met.jobsRunning.Set(int64(len(s.byKey)))
	close(j.done)
}

// handleList is GET /v1/jobs: every job's status, in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	now := time.Now()
	out := make([]JobStatus, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, j.status(now))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// findJob resolves the {id} path value under the server mutex, writing a
// 404 and returning nil when the job does not exist.
func (s *Server) findJob(w http.ResponseWriter, r *http.Request) *job {
	j := s.jobs[r.PathValue("id")]
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	}
	return j
}

// handleStatus is GET /v1/jobs/{id}; with ?wait=1 the reply is deferred
// until the job leaves the running state.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.findJob(w, r)
	if j == nil {
		s.mu.Unlock()
		return
	}
	done := j.done
	s.mu.Unlock()
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-done:
		case <-r.Context().Done():
			return
		}
	}
	s.mu.Lock()
	st := j.status(time.Now())
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleReport is GET /v1/jobs/{id}/report: the assembled campaign report,
// byte-identical to `faultsim -report` on the same spec. Running jobs
// answer 409 (poll status or use ?wait=1 on submission).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.findJob(w, r)
	if j == nil {
		s.mu.Unlock()
		return
	}
	state, errMsg, blob := j.state, j.err, j.report
	s.mu.Unlock()
	switch state {
	case jobRunning:
		httpError(w, http.StatusConflict, "job still running")
	case jobFailed:
		httpError(w, http.StatusConflict, "job failed: %s", errMsg)
	default:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(blob)
	}
}

// handleEvents is GET /v1/jobs/{id}/events: the job's event stream as
// NDJSON — full replay from the first event, then live follow until the
// job finishes or the client disconnects. The lines decode with
// telemetry.DecodeEvents, the same strict schema as faultsim -events.
// Every event is rendered on read: the start event and the finish event
// from the job, and each site event from its settle log entry, the
// universe and the verdict table, stamped with the time the site settled.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.findJob(w, r)
	s.mu.Unlock()
	if j == nil {
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	if err := enc.Encode(j.startEvent()); err != nil {
		return
	}
	for sent := 0; ; {
		s.mu.Lock()
		log, n := j.log, len(j.log)
		if j.fullHit {
			n = len(j.sites)
		}
		state, open := j.state, j.state == jobRunning && !j.closed
		var finish telemetry.Event
		if state == jobDone {
			finish = j.finishEvent()
		}
		var more <-chan struct{}
		if open && n == sent {
			more = j.follow()
		}
		s.mu.Unlock()

		for ; sent < n; sent++ {
			if err := enc.Encode(j.siteEvent(log, sent)); err != nil {
				return
			}
		}
		if !open {
			if state == jobDone {
				_ = enc.Encode(finish)
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if more != nil {
			select {
			case <-more:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// handleJobMetrics is GET /v1/jobs/{id}/metrics: six of the job's status
// fields as metrics in the Prometheus text format (the pool registry
// lives at /metrics), rendered on read.
func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.findJob(w, r)
	if j == nil {
		s.mu.Unlock()
		return
	}
	st := j.status(time.Now())
	s.mu.Unlock()
	reg := telemetry.NewRegistry()
	reg.Gauge("serve_job_sites").Set(int64(st.Sites))
	reg.Gauge("serve_job_shards").Set(int64(st.Shards))
	reg.Gauge("serve_job_shards_done").Set(int64(st.ShardsDone))
	reg.Counter("serve_job_sites_from_cache_total").Add(int64(st.FromCache))
	reg.Counter("serve_job_sites_simulated_total").Add(int64(st.Simulated))
	reg.Counter("serve_job_verdicts_detected_total").Add(int64(st.Detected))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WriteProm(w)
}

// handleLease is POST /v1/lease: renew the requester's leases it lists
// as still running, then grant the oldest pending shard (expiring stale
// leases on the way) to it, or answer 204 when no work is pending.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, maxLeaseBytes, "lease request", &req) {
		return
	}
	now := time.Now()
	s.mu.Lock()
	for _, ref := range req.Renew {
		if j := s.jobs[ref.Job]; j != nil {
			if sh := j.findShard(ref.Shard); sh != nil && sh.state == shardLeased && sh.worker == req.Worker {
				sh.deadline = now.Add(s.cfg.Lease)
			}
		}
	}
	for _, j := range s.running {
		for _, sh := range j.shards {
			if sh.state == shardLeased && now.After(sh.deadline) {
				sh.state = shardPending
				sh.worker = ""
				s.met.shardsExpired.Inc()
			}
			if sh.state != shardPending {
				continue
			}
			sh.state = shardLeased
			sh.worker = req.Worker
			sh.deadline = now.Add(s.cfg.Lease)
			s.met.shardsLeased.Inc()
			var settled []int
			for i := sh.r.Lo; i < sh.r.Hi; i++ {
				if _, _, _, ok := j.journal.Settled(i); ok {
					settled = append(settled, i)
				}
			}
			lease := Lease{
				Job:     j.id,
				Spec:    j.spec,
				Shard:   sh.r,
				Settled: settled,
				Key:     j.key,
				LeaseNs: s.cfg.Lease.Nanoseconds(),
			}
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, lease)
			return
		}
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// parseShard resolves the {shard} path value ("lo-hi") against j's shard
// table. Caller holds the server mutex.
func (j *job) parseShard(name string) *shard {
	lo, hi, ok := splitRange(name)
	if !ok {
		return nil
	}
	return j.findShard(fault.ShardRange{Lo: lo, Hi: hi})
}

// findShard returns j's shard of range r, or nil. Caller holds the server
// mutex.
func (j *job) findShard(r fault.ShardRange) *shard {
	for _, sh := range j.shards {
		if sh.r == r {
			return sh
		}
	}
	return nil
}

// splitRange parses "lo-hi".
func splitRange(s string) (lo, hi int, ok bool) {
	dash := strings.IndexByte(s, '-')
	if dash < 0 {
		return 0, 0, false
	}
	lo, err1 := strconv.Atoi(s[:dash])
	hi, err2 := strconv.Atoi(s[dash+1:])
	return lo, hi, err1 == nil && err2 == nil
}

// handleVerdicts is POST /v1/jobs/{id}/shards/{shard}/verdicts: fold a
// batch of freshly settled verdicts into the job. The batch's golden is
// reconciled first (first batch binds it into the journal; later batches
// must reproduce it), every verdict is journaled before it is counted,
// duplicates of settled sites are ignored, and posting renews the
// worker's lease. A shard completes when its last site settles, which
// is the only completion there is: a worker posts verdicts and nothing
// else.
func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	var batch VerdictBatch
	if !decodeBody(w, r, maxBatchBytes, "verdict batch", &batch) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	if j.state == jobDone {
		// Late duplicate after completion (another leaseholder finished the
		// shard): fine, nothing to fold.
		writeJSON(w, http.StatusOK, j.status(time.Now()))
		return
	}
	if j.state == jobFailed {
		httpError(w, http.StatusConflict, "job failed: %s", j.err)
		return
	}
	sh := j.parseShard(r.PathValue("shard"))
	if sh == nil {
		httpError(w, http.StatusNotFound, "job has no shard %q", r.PathValue("shard"))
		return
	}

	// Validation before anything is journaled: a batch holding a verdict
	// outside the shard, or one fault.Simulate cannot produce (it records
	// a crashed run's signature as 0 and every panic as crashed), is
	// refused whole.
	for _, v := range batch.Verdicts {
		var bad string
		switch {
		case v.I < sh.r.Lo || v.I >= sh.r.Hi:
			bad = fmt.Sprintf("outside shard %s", sh.r)
		case v.Detected != (v.Crashed || v.Sig != batch.Golden):
			bad = fmt.Sprintf("inconsistent: detected=%v with sig %08x, crashed=%v against golden %08x",
				v.Detected, v.Sig, v.Crashed, batch.Golden)
		case v.Crashed && v.Sig != 0:
			bad = fmt.Sprintf("crashed with sig %08x, want 0", v.Sig)
		case v.Panicked && !v.Crashed:
			bad = "panicked but not crashed"
		}
		if bad != "" {
			httpError(w, http.StatusBadRequest, "verdict %d %s", v.I, bad)
			return
		}
	}

	// Golden reconciliation, exactly like a resumed local campaign: the
	// first worker's golden is journaled; any later golden must reproduce
	// it, or the campaign's determinism contract is broken and the job
	// fails loudly rather than mixing verdicts from two environments.
	if err := j.journal.BindGolden(batch.Golden, batch.GoldenOK); err != nil {
		s.failJob(j, "worker %q: %v", batch.Worker, err)
		httpError(w, http.StatusConflict, "%s", j.err)
		return
	}

	for _, v := range batch.Verdicts {
		if _, _, _, ok := j.journal.Settled(v.I); ok {
			continue
		}
		res := fault.SiteResult{
			Site:      j.sites[v.I],
			Detected:  v.Detected,
			Signature: v.Sig,
			Crashed:   v.Crashed,
			Panicked:  v.Panicked,
		}
		if err := j.journal.Record(v.I, res, v.Msg, v.Stack); err != nil {
			s.failJob(j, "journaling verdict %d: %v", v.I, err)
			httpError(w, http.StatusInternalServerError, "%s", j.err)
			return
		}
		j.settle(v.I, res, false)
		s.met.verdicts.Inc()
		s.met.sitesSimulated.Inc()
	}

	if sh.state == shardLeased && sh.worker == batch.Worker {
		sh.deadline = time.Now().Add(s.cfg.Lease)
	}
	s.completeShard(j, sh)
	writeJSON(w, http.StatusOK, j.status(time.Now()))
}

// completeShard marks sh done if every one of its sites is settled, and
// finishes the job when it was the last shard. Caller holds the server
// mutex; j is running.
func (s *Server) completeShard(j *job, sh *shard) {
	if sh.state == shardDone || len(j.journal.Unsettled(sh.r.Lo, sh.r.Hi)) > 0 {
		return
	}
	sh.state = shardDone
	sh.worker = ""
	s.met.shardsCompleted.Inc()
	if j.journal.SettledCount() == len(j.sites) {
		s.finishJob(j)
	}
}
