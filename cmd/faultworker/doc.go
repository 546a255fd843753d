// Command faultworker is the campaign service's shard worker: it leases
// shards from a faultserve server, builds each job's campaign
// deterministically from the spec in the lease (the spec is the whole wire
// format — program, universe, traffic and budget are reconstructed
// locally, never shipped), simulates each shard's unsettled sites on a
// local arena pool, and streams verdict batches back as sites settle. It
// builds and captures the golden run once per job: the job's later shards
// run on the same held campaign, and an idle poll drops it.
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
// the queue empties (the batch-mode switch CI uses).
package main
