package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Worker is a shard worker: it leases shards from a faultserve server,
// builds each job's campaign deterministically from its Spec, simulates
// the unsettled sites of each shard on a local arena pool, and streams
// verdict batches back. It builds a campaign and captures its golden run
// once per job: consecutive shards of one job run on the same held
// campaign, a lease for another spec replaces it, and an idle poll drops
// it. Workers hold no durable state — all of it lives in the server's
// store — so killing one mid-shard costs at most the verdicts not yet
// posted.
type Worker struct {
	// Server is the base URL of the faultserve server (http://host:port).
	Server string
	// Name is the worker's self-chosen name, recorded on its leases.
	Name string
	// Workers is the local arena-pool size per shard; <= 0 uses GOMAXPROCS.
	Workers int
	// Poll is the idle re-poll interval when no work is pending; <= 0
	// means DefaultPoll.
	Poll time.Duration
	// Drain exits Run successfully on the first idle poll instead of
	// waiting for more work — the batch-mode switch CI uses.
	Drain bool
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Telemetry, when non-nil, receives the worker-side metrics and is
	// shared with each shard campaign's engine metrics.
	Telemetry *telemetry.Registry

	// held is the campaign of the current lease's spec, with its golden
	// capture and arenas (core.Campaign.Run keeps them); nil when idle.
	held *Campaign
}

// DefaultPoll is the default idle re-poll interval.
const DefaultPoll = 500 * time.Millisecond

// A verdict batch is flushed when it reaches batchSize verdicts, and a
// non-empty one at least every flushInterval.
const (
	batchSize     = 64
	flushInterval = 200 * time.Millisecond
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

// Run is the worker loop: lease, simulate, stream, complete, repeat. It
// returns when ctx is canceled, on the first idle poll in Drain mode, or
// with the first hard error (a failed shard does not kill the loop — the
// lease expires and another worker retries — but an unreachable server
// does).
func (w *Worker) Run(ctx context.Context) error {
	if w.Poll <= 0 {
		w.Poll = DefaultPoll
	}
	leases := w.Telemetry.Counter("worker_leases_total")
	shardErrs := w.Telemetry.Counter("worker_shard_errors_total")
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		var lease Lease
		status, err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: w.Name}, &lease)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if status == http.StatusNoContent {
			// No work: drop the finished job's campaign, so an idle worker
			// does not keep its engine alive.
			w.held = nil
			if w.Drain {
				return nil
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(w.Poll):
			}
			continue
		}
		leases.Inc()
		if err := w.RunShard(ctx, lease); err != nil {
			// The shard's lease will expire and be re-offered; losing one
			// shard attempt must not kill the worker. A dead server kills
			// the loop via the next lease call instead.
			shardErrs.Inc()
			if ctx.Err() != nil {
				return nil
			}
		}
	}
}

// campaign returns the built campaign for spec: the held one when it is
// spec's, else a fresh build that replaces it.
func (w *Worker) campaign(spec Spec) (*Campaign, error) {
	spec, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	if w.held != nil && w.held.Spec == spec {
		return w.held, nil
	}
	w.held = nil // let the previous job's engine go before building
	c, err := spec.Build()
	if err != nil {
		return nil, err
	}
	w.held = c
	return c, nil
}

// verdictPoster batches settled verdicts and posts them on a size/interval
// policy from its own goroutine, so simulation never blocks on HTTP.
type verdictPoster struct {
	w      *Worker
	ctx    context.Context
	path   string
	worker string

	mu       sync.Mutex
	buf      []Verdict
	golden   uint32
	goldenOK bool
	err      error

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// add queues one verdict and wakes the poster when the batch threshold is
// reached. Safe for concurrent use from arena workers.
func (p *verdictPoster) add(v Verdict) {
	p.mu.Lock()
	p.buf = append(p.buf, v)
	full := len(p.buf) >= batchSize
	p.mu.Unlock()
	if full {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// flush posts the queued verdicts, if any, at most batchSize to a request:
// verdicts keep settling while a post is in flight, so the queue can
// outgrow one batch. The first failed post ends the flush; post errors are
// sticky.
func (p *verdictPoster) flush() {
	p.mu.Lock()
	queued := p.buf
	p.buf = nil
	golden, goldenOK := p.golden, p.goldenOK
	p.mu.Unlock()
	for batch := range slices.Chunk(queued, batchSize) {
		_, err := p.w.post(p.ctx, p.path, VerdictBatch{
			Worker:   p.worker,
			Golden:   golden,
			GoldenOK: goldenOK,
			Verdicts: batch,
		}, nil)
		if err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
			return
		}
	}
}

// loop is the poster goroutine: flush on wake (batch full), on the flush
// interval, and once more on quit.
func (p *verdictPoster) loop() {
	defer close(p.done)
	tick := time.NewTicker(flushInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			p.flush()
			return
		case <-p.wake:
			p.flush()
		case <-tick.C:
			p.flush()
		}
	}
}

// RunShard simulates one leased shard: take the campaign of the lease's
// spec (held from the job's previous shard, or built), cross-check the
// universe size, run the shard's unsettled sites as a sub-universe on the
// campaign's arenas, and stream the verdicts back while simulation
// continues. Returns after the final flush and completion call.
func (w *Worker) RunShard(ctx context.Context, lease Lease) error {
	c, err := w.campaign(lease.Spec)
	if err != nil {
		return err
	}
	if lease.Sites != len(c.Sites) {
		return fmt.Errorf("serve: worker: lease %s/%s: universe size %d does not match the local build's %d",
			lease.Job, lease.Shard, lease.Sites, len(c.Sites))
	}
	if lease.Shard.Lo < 0 || lease.Shard.Hi > len(c.Sites) || lease.Shard.Lo > lease.Shard.Hi {
		return fmt.Errorf("serve: worker: lease %s/%s: shard outside universe of %d", lease.Job, lease.Shard, len(c.Sites))
	}

	// The shard's pending work as a sub-universe: verdicts are pure
	// per-site functions of the environment, so simulating a subset
	// settles the same verdicts the full campaign would. sub maps local
	// site indices back to universe indices for the wire.
	settled := make(map[int]bool, len(lease.Settled))
	for _, i := range lease.Settled {
		settled[i] = true
	}
	var sub []int
	var sites []fault.Site
	for i := lease.Shard.Lo; i < lease.Shard.Hi; i++ {
		if !settled[i] {
			sub = append(sub, i)
			sites = append(sites, c.Sites[i])
		}
	}

	p := &verdictPoster{
		w:      w,
		ctx:    ctx,
		path:   fmt.Sprintf("/v1/jobs/%s/shards/%s/verdicts", lease.Job, lease.Shard),
		worker: w.Name,
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go p.loop()

	simulated := w.Telemetry.Counter("worker_sites_simulated_total")
	var runErr error
	if len(sub) > 0 {
		_, runErr = c.Run(sites, core.CampaignOptions{
			Workers:   w.Workers,
			Telemetry: w.Telemetry,
			OnGolden: func(sig uint32, ok bool) {
				p.mu.Lock()
				p.golden, p.goldenOK = sig, ok
				p.mu.Unlock()
			},
			OnSettle: func(i int, res fault.SiteResult, fromJournal bool) {
				simulated.Inc()
				p.add(Verdict{
					I:        sub[i],
					Sig:      res.Signature,
					Detected: res.Detected,
					Crashed:  res.Crashed,
					Panicked: res.Panicked,
				})
			},
		})
	}
	close(p.quit)
	<-p.done
	if runErr != nil {
		return fmt.Errorf("serve: worker: shard %s/%s: %w", lease.Job, lease.Shard, runErr)
	}
	p.mu.Lock()
	postErr := p.err
	p.mu.Unlock()
	if postErr != nil {
		return postErr
	}
	_, err = w.post(ctx, fmt.Sprintf("/v1/jobs/%s/shards/%s/complete", lease.Job, lease.Shard),
		CompleteRequest{Worker: w.Name}, nil)
	return err
}
