package serve

import (
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// shardState is one shard's position in the lifecycle machine:
// pending → leased → done, with leased → pending on lease expiry.
// Shards whose sites the store already settles are born done.
type shardState uint8

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

// shard is one contiguous slice of a job's fault universe, the unit of
// work distribution and of cache addressing.
type shard struct {
	r        fault.ShardRange
	state    shardState
	worker   string    // current leaseholder (leased state)
	deadline time.Time // lease expiry (leased state)
}

// jobState is a job's lifecycle state.
type jobState uint8

const (
	jobRunning jobState = iota
	jobDone
	jobFailed
)

// String renders the state the way JobStatus.State carries it.
func (s jobState) String() string {
	switch s {
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	}
	return "?"
}

// jobMetrics is a job's resolved per-job registry handles.
type jobMetrics struct {
	sites      *telemetry.Gauge
	shards     *telemetry.Gauge
	shardsDone *telemetry.Gauge
	fromCache  *telemetry.Counter
	simulated  *telemetry.Counter
	detected   *telemetry.Counter
}

// newJobMetrics resolves the per-job metric names on reg.
func newJobMetrics(reg *telemetry.Registry) jobMetrics {
	return jobMetrics{
		sites:      reg.Gauge("serve_job_sites"),
		shards:     reg.Gauge("serve_job_shards"),
		shardsDone: reg.Gauge("serve_job_shards_done"),
		fromCache:  reg.Counter("serve_job_sites_from_cache_total"),
		simulated:  reg.Counter("serve_job_sites_simulated_total"),
		detected:   reg.Counter("serve_job_verdicts_detected_total"),
	}
}

// job is one submitted campaign: the built campaign, the store journal
// that is its verdict table (settled set, verdicts and golden), the shard
// table, and the job-scoped telemetry surface (event buffer + registry,
// whose counters are the job's from-cache/simulated/detected tallies). All
// mutable fields are guarded by the owning Server's mutex. A resubmission
// of a finished job's spec shares that job's journal, shard table and
// report, none of which changes once a job is done.
type job struct {
	id      string
	key     string
	c       *Campaign
	journal *fault.Journal
	shards  []*shard

	state jobState
	err   string
	// fullHit marks a job complete at submission: its event buffer holds
	// only the start and finish events, and handleEvents renders the site
	// events from the verdict table.
	fullHit bool

	report []byte // final report JSON, rendered at completion or shared

	events *telemetry.EventBuffer
	reg    *telemetry.Registry
	met    jobMetrics

	created  time.Time
	finished time.Time
	done     chan struct{} // closed when the job leaves the running state
}

// shardsDone counts completed shards.
func (j *job) shardsDone() int {
	n := 0
	for _, sh := range j.shards {
		if sh.state == shardDone {
			n++
		}
	}
	return n
}

// status renders the job's status document.
func (j *job) status(now time.Time) JobStatus {
	elapsed := now.Sub(j.created)
	if j.state != jobRunning {
		elapsed = j.finished.Sub(j.created)
	}
	return JobStatus{
		ID:         j.id,
		Key:        j.key,
		Spec:       j.c.Spec,
		State:      j.state.String(),
		Error:      j.err,
		Sites:      len(j.c.Sites),
		Settled:    j.journal.SettledCount(),
		FromCache:  int(j.met.fromCache.Value()),
		Simulated:  int(j.met.simulated.Value()),
		Detected:   int(j.met.detected.Value()),
		Shards:     len(j.shards),
		ShardsDone: j.shardsDone(),
		ElapsedNs:  elapsed.Nanoseconds(),
	}
}

// settle counts one newly settled verdict and emits its site event, which
// a full cache hit leaves to handleEvents. Caller holds the server mutex;
// the verdict is already in the journal.
func (j *job) settle(i int, res fault.SiteResult, fromCache bool) {
	if fromCache {
		j.met.fromCache.Inc()
	} else {
		j.met.simulated.Inc()
	}
	if res.Detected {
		j.met.detected.Inc()
	}
	if !j.fullHit {
		j.events.Emit(fault.SiteEvent(i, res, fromCache))
	}
}

// assembleReport builds the final fault.Report from the journal. Anomaly
// stacks are not reassembled — like `faultsim -report`, the service report
// carries the verdict set, which is the byte-comparable part.
func (j *job) assembleReport() fault.Report {
	sig, ok, _ := j.journal.Golden()
	rep := fault.Report{
		Golden:   sig,
		GoldenOK: ok,
		Total:    len(j.c.Sites),
		Results:  make([]fault.SiteResult, len(j.c.Sites)),
	}
	for i, site := range j.c.Sites {
		res, _, _, _ := j.journal.Settled(i)
		res.Site = site
		rep.Results[i] = res
		if res.Detected {
			rep.Detected++
		}
		if res.Panicked {
			rep.Panics++
		}
	}
	return rep
}
