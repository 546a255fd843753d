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

// build is what the server keeps of a built campaign: the normalized
// spec, its journal header and its fault universe. The recorded traffic
// and programs a Build also holds are dropped at submission; only workers
// simulate, and they build the spec themselves.
type build struct {
	spec   Spec
	header fault.JournalHeader
	sites  []fault.Site
}

// settleEntry is one entry of a job's settle log, 16 bytes: site i
// settled at t (Unix nanoseconds), from the store or from a worker's
// verdict.
type settleEntry struct {
	t         int64
	i         int32
	fromStore bool
}

// job is one submitted campaign: its build, the store journal that is its
// verdict table (settled set, verdicts and golden), the shard table, the
// settle log its event stream is rendered from, and the tallies its status
// and per-job metrics render from. All mutable fields are guarded by the
// owning Server's mutex. A resubmission of a finished job's spec shares
// that job's build, journal, shard table and report, none of which
// changes once a job is done.
type job struct {
	build
	id      string
	key     string
	journal *fault.Journal
	shards  []*shard

	state jobState
	err   string
	// fullHit marks a job complete at submission. Its settle log is
	// implicit, and never stored: every site, in universe order, from the
	// store at the job's start.
	fullHit bool
	// log is every other job's settle log, in settle order.
	log []settleEntry
	// closed ends the event stream of a job still running when the
	// server closes.
	closed bool
	// changed, when a follower waits on it, is closed when the event
	// stream next grows or ends.
	changed chan struct{}

	report []byte // final report JSON, rendered at completion or shared

	// fromCache, simulated and detected count the settled verdicts that
	// came from the store, those that came from workers, and the detected
	// ones.
	fromCache, simulated, detected int

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
		Spec:       j.spec,
		State:      j.state.String(),
		Error:      j.err,
		Sites:      len(j.sites),
		Settled:    j.journal.SettledCount(),
		FromCache:  j.fromCache,
		Simulated:  j.simulated,
		Detected:   j.detected,
		Shards:     len(j.shards),
		ShardsDone: j.shardsDone(),
		ElapsedNs:  elapsed.Nanoseconds(),
	}
}

// settle counts one newly settled verdict and logs it for the event
// stream, which a full hit's implicit log covers. Caller holds the server
// mutex; the verdict is already in the journal.
func (j *job) settle(i int, res fault.SiteResult, fromCache bool) {
	if fromCache {
		j.fromCache++
	} else {
		j.simulated++
	}
	if res.Detected {
		j.detected++
	}
	if !j.fullHit {
		j.log = append(j.log, settleEntry{t: time.Now().UnixNano(), i: int32(i), fromStore: fromCache})
		j.wake()
	}
}

// follow returns a channel that is closed when the job's event stream
// next grows or ends. Caller holds the server mutex.
func (j *job) follow() <-chan struct{} {
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return j.changed
}

// wake releases the followers waiting on the event stream. Caller holds
// the server mutex.
func (j *job) wake() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// startEvent renders the job's start event.
func (j *job) startEvent() telemetry.Event {
	return telemetry.Event{Kind: telemetry.EventStart, T: j.created.UnixNano(), Sites: len(j.sites)}
}

// siteEvent renders entry k of the job's settle log, of which log is what
// the caller read under the server mutex, from the universe and the
// verdict table.
func (j *job) siteEvent(log []settleEntry, k int) telemetry.Event {
	e := settleEntry{t: j.created.UnixNano(), i: int32(k), fromStore: true}
	if !j.fullHit {
		e = log[k]
	}
	res, _, _, _ := j.journal.Settled(int(e.i))
	res.Site = j.sites[e.i]
	ev := fault.SiteEvent(int(e.i), res, e.fromStore)
	ev.T = e.t
	return ev
}

// finishEvent renders a done job's finish event. Caller holds the server
// mutex.
func (j *job) finishEvent() telemetry.Event {
	return telemetry.Event{
		Kind:          telemetry.EventFinish,
		T:             j.finished.UnixNano(),
		Sites:         len(j.sites),
		Settled:       int64(j.journal.SettledCount()),
		DetectedTotal: int64(j.detected),
		ElapsedNs:     j.finished.Sub(j.created).Nanoseconds(),
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
		Total:    len(j.sites),
		Results:  make([]fault.SiteResult, len(j.sites)),
	}
	for i, site := range j.sites {
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
