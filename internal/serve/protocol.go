package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/fault"
)

// The shard protocol: a worker leases a shard, streams the verdicts it
// settles in batches, and leases the next shard when it runs out of
// sites; a shard completes on the server when its last verdict lands.
// Every message is plain JSON over HTTP; docs/SERVICE.md is the wire
// reference.

// LeaseRequest is the body of POST /v1/lease.
type LeaseRequest struct {
	// Worker is the leasing worker's self-chosen name, recorded on the
	// shard for status output.
	Worker string `json:"worker"`
	// Renew lists the shards the worker is still simulating as it leases
	// the next one. The server renews each lease among them that the
	// worker still holds, as a verdict batch would, so a shard whose last
	// sites are still running does not expire under its own worker.
	Renew []ShardRef `json:"renew,omitempty"`
}

// ShardRef names one shard of one job.
type ShardRef struct {
	// Job is the job ID.
	Job string `json:"job"`
	// Shard is the shard's index range.
	Shard fault.ShardRange `json:"shard"`
}

// Lease is the server's answer to a successful lease request: one shard
// of one job, plus everything the worker needs to simulate it without
// further round trips. (No work pending is a 204, not a Lease.)
type Lease struct {
	// Job is the job ID the shard belongs to.
	Job string `json:"job"`
	// Spec is the normalized campaign spec; the worker rebuilds the
	// campaign from it deterministically.
	Spec Spec `json:"spec"`
	// Shard is the leased index range of the fault universe.
	Shard fault.ShardRange `json:"shard"`
	// Settled lists the universe indices within Shard that are already
	// settled (journaled by the store or streamed by a worker that died
	// mid-shard) — the worker skips them, which is what makes shard
	// resume site-granular.
	Settled []int `json:"settled,omitempty"`
	// Key is the job's content address, the Header.Key() of the
	// server's build, which covers the universe size too. A worker
	// simulates the shard only when its own build of Spec has this key:
	// a build that compiles the spec into another program, universe or
	// environment must not have its verdicts journaled under the job's
	// key.
	Key string `json:"key"`
	// LeaseNs is the lease duration in nanoseconds; a verdict batch for
	// the shard or a lease request that lists it in Renew renews it, and a
	// silent worker forfeits the shard when it expires.
	LeaseNs int64 `json:"lease_ns"`
}

// Verdict is one settled site verdict on the wire (the JSON twin of
// fault.SiteResult, addressed by universe index).
type Verdict struct {
	// I is the site's index in the ordered fault universe.
	I int `json:"i"`
	// Sig is the settled test signature (0 for crashed runs, canonical).
	Sig uint32 `json:"sig"`
	// Detected marks a detected fault.
	Detected bool `json:"detected,omitempty"`
	// Crashed marks a wedged or timed-out run.
	Crashed bool `json:"crashed,omitempty"`
	// Panicked marks a verdict settled at the recover boundary.
	Panicked bool `json:"panicked,omitempty"`
	// Msg is the panic message of a panicked run (diagnostic).
	Msg string `json:"msg,omitempty"`
	// Stack is the panic stack of a panicked run (diagnostic).
	Stack string `json:"stack,omitempty"`
}

// VerdictBatch is the body of POST /v1/jobs/{id}/shards/{shard}/verdicts:
// a slice of freshly settled verdicts plus the worker's golden reference,
// which the server reconciles into the journal exactly like a resumed
// local campaign (a golden that fails to reproduce the journaled one is
// refused — determinism is load-bearing, not assumed).
type VerdictBatch struct {
	// Worker is the posting worker's name; posting renews the shard
	// lease when the name still holds it.
	Worker string `json:"worker"`
	// Golden is the worker's golden signature for this campaign.
	Golden uint32 `json:"golden"`
	// GoldenOK reports whether the worker's golden run completed cleanly.
	GoldenOK bool `json:"golden_ok"`
	// Verdicts carries the settled verdicts (any order, duplicates of
	// already-settled sites are ignored).
	Verdicts []Verdict `json:"verdicts"`
}

// JobStatus is the status document of GET /v1/jobs/{id} (and each entry
// of GET /v1/jobs). Simulated counts verdicts streamed by workers for
// this job; FromCache counts verdicts served by the content-addressed
// store at submission. Their sum is Settled, so `simulated == 0` is the
// machine-checkable definition of a full cache hit.
type JobStatus struct {
	// ID is the job ID.
	ID string `json:"id"`
	// Key is the campaign's content address (store journal name).
	Key string `json:"key"`
	// Spec is the normalized campaign spec.
	Spec Spec `json:"spec"`
	// State is "running", "done" or "failed".
	State string `json:"state"`
	// Error carries the failure reason of a failed job.
	Error string `json:"error,omitempty"`
	// Sites is the universe size.
	Sites int `json:"sites"`
	// Settled counts settled sites (FromCache + Simulated).
	Settled int `json:"settled"`
	// FromCache counts verdicts folded in from the store at submission.
	FromCache int `json:"fromCache"`
	// Simulated counts verdicts streamed by workers.
	Simulated int `json:"simulated"`
	// Detected counts detected faults so far.
	Detected int `json:"detected"`
	// Shards counts the job's shards.
	Shards int `json:"shards"`
	// ShardsDone counts completed shards.
	ShardsDone int `json:"shardsDone"`
	// ElapsedNs is wall time since submission (until completion for
	// finished jobs).
	ElapsedNs int64 `json:"elapsed_ns"`
}

// MarshalReport renders a campaign report exactly as `faultsim -report`
// writes it: indented JSON with diagnostic anomaly stacks stripped and a
// trailing newline, so service reports and local reports are byte-
// comparable (`cmp` in CI).
func MarshalReport(rep fault.Report) ([]byte, error) {
	rep.Anomalies = nil
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: report: %w", err)
	}
	return append(blob, '\n'), nil
}
