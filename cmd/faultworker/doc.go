// Command faultworker is the campaign service's shard worker: it leases
// shards from a faultserve server, builds each job's campaign
// deterministically from the spec in the lease (the spec is the whole wire
// format — program, universe, traffic and budget are reconstructed
// locally, never shipped), simulates the unsettled sites of the job's
// shards on a local arena pool, and streams verdict batches back as sites
// settle. It builds and captures the golden run once per job and runs the
// job as one stream: an arena that runs out of sites leases the job's
// next shard while the others finish theirs, each shard completes on the
// server when its last verdict lands, and the job's campaign goes when
// its stream ends. A failed verdict post is retried before a shard fails.
//
// Usage:
//
//	faultworker -server http://host:8080 [-name NAME] [-workers N]
//	            [-poll 500ms] [-drain] [-telemetry :0]
//
// Workers hold no durable state: every streamed verdict lands in the
// server's content-addressed journal before it is counted, so killing a
// worker (SIGKILL included) costs at most the verdicts not yet posted —
// its lease expires and the next leaseholder is told exactly which sites
// remain. Run as many workers as you have machines; -drain exits after
// the queue empties (the batch-mode switch CI uses), non-zero when a
// shard failed.
package main
