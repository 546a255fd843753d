package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Worker is a shard worker: it leases shards from a faultserve server,
// builds each job's campaign deterministically from its Spec, simulates
// the unsettled sites of the job's shards on a local arena pool, and
// streams verdict batches back. It builds a campaign, captures its golden
// run and runs one core.Campaign.Run per job: the arenas lease the job's
// next shard when they run out of sites, and the campaign goes when the
// job's stream ends. Workers hold no durable state — all of it lives in
// the server's store — so killing one mid-shard costs at most the
// verdicts not yet posted.
type Worker struct {
	// Server is the base URL of the faultserve server (http://host:port).
	Server string
	// Name is the worker's self-chosen name, recorded on its leases.
	Name string
	// Workers is the local arena-pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Poll is the idle re-poll interval when no work is pending; <= 0
	// means DefaultPoll.
	Poll time.Duration
	// Drain ends Run on the first idle poll instead of waiting for more
	// work, returning the first failed shard's error — the batch-mode
	// switch CI uses.
	Drain bool
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Telemetry, when non-nil, receives the worker-side metrics and is
	// shared with each job campaign's engine metrics.
	Telemetry *telemetry.Registry
}

// DefaultPoll is the default idle re-poll interval.
const DefaultPoll = 500 * time.Millisecond

// A verdict batch is flushed when it reaches batchSize verdicts, and a
// non-empty one at least every flushInterval. A shard fails when
// postAttempts posts of its verdicts fail in a row.
const (
	batchSize     = 64
	flushInterval = 200 * time.Millisecond
	postAttempts  = 4
)

// client returns the configured HTTP client.
func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// post sends v as JSON to path and decodes the reply into out (when
// non-nil). Non-2xx replies surface the server's error body.
func (w *Worker) post(ctx context.Context, path string, v, out any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("serve: worker: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Server+path, bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("serve: worker: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, fmt.Errorf("serve: worker: %s: %w", path, err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("serve: worker: %s: %s: %s", path, resp.Status, bytes.TrimSpace(blob))
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.Unmarshal(blob, out); err != nil {
			return resp.StatusCode, fmt.Errorf("serve: worker: %s: decoding reply: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Run is the worker loop: lease a shard, stream its job (RunLease), and
// go on with the lease for another spec that ended the stream, or lease
// again after an idle poll. It returns when ctx is canceled, with the
// first hard error (an unreachable server), or in Drain mode at the first
// idle poll, with the first error of the run: a failed shard's, nil when
// none failed. Outside Drain mode a failed shard does not end the loop —
// its lease expires and another worker retries it.
func (w *Worker) Run(ctx context.Context) error {
	if w.Poll <= 0 {
		w.Poll = DefaultPoll
	}
	var failed error // the run's first error, which a Drain run returns
	var next *Lease
	for ctx.Err() == nil {
		if next == nil {
			var err error
			if next, err = w.lease(ctx, nil); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
		}
		if next != nil {
			var err error
			next, err = w.RunLease(ctx, *next)
			if failed == nil {
				failed = err
			}
			if next != nil {
				continue // a lease for another spec ended the stream
			}
		}
		if w.Drain {
			if ctx.Err() != nil {
				return nil
			}
			return failed
		}
		select {
		case <-ctx.Done():
		case <-time.After(w.Poll):
		}
	}
	return nil
}

// lease asks the server for a shard, renewing the leases of the shards
// in renew; nil without an error means no work is pending.
func (w *Worker) lease(ctx context.Context, renew []ShardRef) (*Lease, error) {
	var l Lease
	status, err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: w.Name, Renew: renew}, &l)
	if err != nil || status == http.StatusNoContent {
		return nil, err
	}
	w.Telemetry.Counter("worker_leases_total").Inc()
	return &l, nil
}

// RunLease builds the campaign of lease's spec and streams the job through
// one core.Campaign.Run on it. The arenas claim the unsettled sites of the
// shards the worker holds, starting with lease's; an arena that finds
// none left leases the next shard while the others finish their sites,
// and a lease for another spec, a lease whose content key the local
// build does not reproduce, or an idle poll ends the stream. Each
// shard posts its verdicts through its own poster, which flushes when the
// shard's last verdict settles without pausing simulation; RunLease
// returns once every poster is done.
// It returns the lease for another spec that ended the stream (nil when
// an idle poll, a failed lease call or a refused key did) and the
// stream's first error:
// a failed shard's or the failed lease call's. Each failed shard counts
// in worker_shard_errors_total.
func (w *Worker) RunLease(ctx context.Context, lease Lease) (*Lease, error) {
	c, err := lease.Spec.Build()
	if err != nil {
		w.Telemetry.Counter("worker_shard_errors_total").Inc()
		return nil, fmt.Errorf("serve: worker: lease %s/%s: %w", lease.Job, lease.Shard, err)
	}
	s := &stream{w: w, ctx: ctx, c: c, key: c.Header.Key(), spec: lease.Spec, next: &lease, owner: make([]*verdictPoster, len(c.Sites))}
	simulated := w.Telemetry.Counter("worker_sites_simulated_total")
	_, err = c.Run(c.Sites, core.CampaignOptions{
		Workers:   w.Workers,
		Telemetry: w.Telemetry,
		Claim:     s.claim,
		OnGolden:  func(sig uint32, ok bool) { s.golden, s.goldenOK = sig, ok },
		OnSettle: func(i int, res fault.SiteResult, _ bool) {
			simulated.Inc()
			s.owner[i].add(Verdict{
				I:        i,
				Sig:      res.Signature,
				Detected: res.Detected,
				Crashed:  res.Crashed,
				Panicked: res.Panicked,
			})
		},
	})
	if err != nil {
		s.fail(fmt.Errorf("serve: worker: job %s: %w", lease.Job, err))
	}
	return s.finish()
}

// stream is the site feed of one RunLease: the queue of unsettled sites
// of the shards it leased, and one verdict poster per shard.
type stream struct {
	w    *Worker
	ctx  context.Context
	c    *Campaign
	key  string // c's content address, which every fed lease must carry
	spec Spec   // the first lease's spec, which every fed lease carries
	// golden and goldenOK are the campaign's golden verdict, set before
	// the first claim.
	golden   uint32
	goldenOK bool
	// owner maps a queued universe index to its shard's poster. A claim
	// publishes the entry to the arena that settles the site.
	owner []*verdictPoster

	mu      sync.Mutex
	next    *Lease // the lease to feed when the queue runs dry
	queue   []int  // fed universe indices not yet claimed
	ended   bool
	other   *Lease // the lease for another spec that ended the stream
	posters []*verdictPoster
	err     error
}

// claim hands an arena its next site. When the queue is empty it feeds
// the next lease, leasing one first, until a site is queued or the
// stream ends; the other arenas have no site to claim until then, so
// the lease call holds s.mu. It renews the shards whose posters are
// still running: the other arenas may still be simulating their last
// sites.
func (s *stream) claim() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 {
		if s.ended {
			return 0, false
		}
		if s.next == nil {
			var running []ShardRef
			for _, p := range s.posters {
				select {
				case <-p.done:
				default:
					running = append(running, p.ref)
				}
			}
			l, err := s.w.lease(s.ctx, running)
			if err != nil && s.err == nil {
				s.err = err
			}
			if l == nil {
				s.ended = true
				continue
			}
			s.next = l
		}
		if s.next.Spec != s.spec {
			s.other, s.ended = s.next, true
		} else {
			s.feed(*s.next)
		}
		s.next = nil
	}
	i := s.queue[0]
	s.queue = s.queue[1:]
	return i, true
}

// feed queues the unsettled sites of l's shard that the stream does not
// hold yet (a shard whose lease expired under this worker can come back
// to it) and starts the shard's poster. A lease whose key is not the
// local build's fails the shard and ends the stream: the worker would
// simulate another campaign than the job's (the key covers the universe
// size too), and every other shard of the job would fail the same way.
// Caller holds s.mu.
func (s *stream) feed(l Lease) {
	if l.Key != s.key {
		s.fail(fmt.Errorf("serve: worker: lease %s/%s: content key %q does not match the local build's %s",
			l.Job, l.Shard, l.Key, s.key))
		s.ended = true
		return
	}
	n := len(s.c.Sites)
	if l.Shard.Lo < 0 || l.Shard.Hi > n || l.Shard.Lo > l.Shard.Hi {
		s.fail(fmt.Errorf("serve: worker: lease %s/%s: shard outside universe of %d", l.Job, l.Shard, n))
		return
	}
	settled := make(map[int]bool, len(l.Settled))
	for _, i := range l.Settled {
		settled[i] = true
	}
	p := &verdictPoster{
		w:        s.w,
		ctx:      s.ctx,
		ref:      ShardRef{Job: l.Job, Shard: l.Shard},
		path:     fmt.Sprintf("/v1/jobs/%s/shards/%s/verdicts", l.Job, l.Shard),
		golden:   s.golden,
		goldenOK: s.goldenOK,
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := l.Shard.Lo; i < l.Shard.Hi; i++ {
		if !settled[i] && s.owner[i] == nil {
			s.owner[i] = p
			s.queue = append(s.queue, i)
			p.pending++
		}
	}
	if p.pending > 0 {
		s.posters = append(s.posters, p)
		go p.loop()
	}
}

// fail counts one failed shard and keeps the stream's first error.
// Caller holds s.mu, or the campaign run has returned.
func (s *stream) fail(err error) {
	s.w.Telemetry.Counter("worker_shard_errors_total").Inc()
	if s.err == nil {
		s.err = err
	}
}

// finish waits for every shard's poster after the campaign run has
// returned, and returns the lease for another spec that ended the stream
// and the stream's first error.
func (s *stream) finish() (*Lease, error) {
	for _, p := range s.posters {
		if p.pending > 0 {
			// The run ended before the shard did: post what settled.
			close(p.quit)
		}
		<-p.done
		if p.err != nil {
			s.fail(p.err)
		}
	}
	return s.other, s.err
}

// verdictPoster batches one shard's settled verdicts and posts them on a
// size/interval policy from its own goroutine, so simulation never blocks
// on HTTP. The shard's last verdict ends it with a final flush, which the
// poster retries until it lands or the shard fails.
type verdictPoster struct {
	w        *Worker
	ctx      context.Context
	ref      ShardRef
	path     string
	golden   uint32
	goldenOK bool

	mu      sync.Mutex
	buf     []Verdict
	pending int // verdicts still to come

	// failures counts the posts that failed in a row, and err is the
	// shard's failure. Only flush writes them; err is read after done.
	failures int
	err      error

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// add queues one verdict and counts it off, then wakes the poster when
// the batch threshold is reached, or ends it on the shard's last verdict.
// Queueing and counting share one lock, so the final flush cannot run
// before another arena's add. Safe for concurrent use from arena workers.
func (p *verdictPoster) add(v Verdict) {
	p.mu.Lock()
	p.buf = append(p.buf, v)
	p.pending--
	last, full := p.pending == 0, len(p.buf) >= batchSize
	p.mu.Unlock()
	switch {
	case last:
		close(p.quit)
	case full:
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// flush posts the queued verdicts, if any, at most batchSize to a request:
// verdicts keep settling while a post is in flight, so the queue can
// outgrow one batch. A post that gets no reply or a 5xx puts its verdicts
// and those behind it back at the head of the queue and ends the flush,
// reporting true; the next flush sends them again. The shard fails
// (p.err) at the postAttempts-th failed post in a row, and at once on any
// other error or a done ctx. The server ignores verdicts it already
// settled, so sending a batch again is safe.
func (p *verdictPoster) flush() (requeued bool) {
	p.mu.Lock()
	queued := p.buf
	p.buf = nil
	p.mu.Unlock()
	for len(queued) > 0 {
		batch := queued[:min(len(queued), batchSize)]
		status, err := p.w.post(p.ctx, p.path, VerdictBatch{
			Worker:   p.w.Name,
			Golden:   p.golden,
			GoldenOK: p.goldenOK,
			Verdicts: batch,
		}, nil)
		if err != nil {
			p.failures++
			if p.failures >= postAttempts || p.ctx.Err() != nil || status != 0 && status < 500 {
				p.err = err
				return false
			}
			p.mu.Lock()
			p.buf = append(queued, p.buf...)
			p.mu.Unlock()
			return true
		}
		p.failures = 0
		queued = queued[len(batch):]
	}
	return false
}

// loop is the poster goroutine: flush on wake (batch full), on the flush
// interval, and on quit, then on each interval until the final flush
// lands. A failed shard ends it at once.
func (p *verdictPoster) loop() {
	defer close(p.done)
	tick := time.NewTicker(flushInterval)
	defer tick.Stop()
	quit := p.quit
	for {
		select {
		case <-quit:
			quit = nil // the shard has ended: what is left is the final flush
		case <-p.wake:
		case <-tick.C:
		}
		requeued := p.flush()
		if p.err != nil || quit == nil && !requeued {
			return
		}
	}
}
