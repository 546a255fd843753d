// Command faultserve is the campaign job server: it accepts fault-campaign
// specs over HTTP/JSON, shards each campaign's fault universe across
// leasing faultworker processes, streams per-site verdicts as an NDJSON
// event feed, and caches every settled verdict in a content-addressed
// store — so resubmitting a campaign (or overlapping with one) is served
// from cache without simulation, and a worker or server kill resumes
// site-granularly to the same byte-identical report.
//
// Usage:
//
//	faultserve [-addr :8080] [-store DIR] [-shard-size N] [-lease 1m]
//
// The API (docs/SERVICE.md is the full reference):
//
//	POST /v1/jobs                    submit a campaign spec (?wait=1 blocks)
//	GET  /v1/jobs                    list jobs
//	GET  /v1/jobs/{id}               job status (?wait=1 blocks)
//	GET  /v1/jobs/{id}/report        final report (byte-identical to faultsim -report)
//	GET  /v1/jobs/{id}/events        NDJSON event stream (replay + follow)
//	GET  /v1/jobs/{id}/metrics       per-job Prometheus metrics
//	POST /v1/lease                   worker: lease a shard, renew running ones
//	POST /v1/jobs/{id}/shards/{s}/verdicts   worker: stream verdicts (a shard completes on its last)
//	GET  /metrics, /debug/pprof/     pool telemetry
package main
