// Package serve is the campaign service: an HTTP/JSON job server
// (cmd/faultserve) and shard worker (cmd/faultworker) that turn fault
// campaigns into content-addressed, cacheable, resumable jobs.
//
// A campaign is a pure function of its Spec — routine, core under test,
// execution strategy, contention, fault model, bit step. Build constructs
// the full environment from a Spec deterministically (the exact
// construction cmd/faultsim performs), so the server and every worker
// agree on the program image, fault universe, replay traffic, cycle budget
// and content address (core.CampaignFingerprint) without shipping any of
// them over the wire: the Spec is the wire format.
//
// The server folds previously settled verdicts in from a content-addressed
// store directory (one fault.Journal per campaign fingerprint, which is
// also the job's verdict table while it runs), shards the remainder
// of the universe (fault.ShardRanges), and leases shards to workers over
// the shard protocol (protocol.go). Workers stream verdict batches as
// sites settle; every verdict is journaled before it is counted, so a
// SIGKILL — of a worker or of the server — costs at most the verdicts not
// yet posted, and a resubmitted campaign completes from cache without a
// single simulated run. Neither side builds more than it must: a
// resubmission takes the campaign the server built for the same normalized
// spec, and the verdict table and report of that spec's finished job; a
// worker builds a job's campaign, golden capture included, once, and
// streams all the shards it leases of that job through one engine run. Reports are assembled byte-identical to a local
// `faultsim -report` run of the same spec; CI pins that with cmp.
//
// docs/SERVICE.md is the API and wire-format reference;
// docs/ARCHITECTURE.md § "Campaign service" covers the failure domains.
package serve
