// Command bench is the repository's benchmark: it measures how fast fault
// campaigns run, end to end and layer by layer, and checks every campaign
// report it produces against reference mode.
//
// Usage, from the repository root:
//
//	bash cmd/bench/run.sh [-workload NAME|all] [-seed N] [-seconds S]
//	                      [-trace 0|1] [-trace-dir DIR] [-out FILE]
//	bash cmd/bench/run.sh -compare A.json... -- B.json...
//	bash cmd/bench/run.sh -write-reference cmd/bench/reference.json
//
// run.sh builds this directory, a Go module of its own that uses the
// repository's packages through a replace directive, with every cache and
// temporary file under .bench_build/; `go run .` inside cmd/bench works too.
// Because it is a module of its own, the root module's ./... patterns do
// not reach it: vet and test it with `cd cmd/bench && go vet . && go test
// -race .`.
// The defaults are -workload all, -seed 1 and -seconds 20. The run prints a
// table per workload and, as its last line, one JSON object: correct,
// attempted, failed and the metrics with their units. -out writes the
// result record: provenance (commit and dirty flag, UTC date, Go version,
// GOOS/GOARCH, CPU model, nproc, GOMAXPROCS, seed) and every metric with
// its sample count n.
//
// # Workloads
//
// Each workload is a fixed census of campaign specs (serve.Spec, the
// 6-field wire format that fully determines a campaign). The traffic the
// tools serve is bitstep 1, the default of cmd/faultsim and serve.Spec and
// the setting of the paper's tables, so every census has a bitstep-1
// slice: core 0 alone under each of the three strategies. The rest of each
// grid runs at bitstep 8, because a bitstep-1 forwarding job has 7 to 8
// times the sites and a whole bitstep-1 grid would leave a 20-second run
// too few jobs for a p90. The ICU universe has no data bits, so ICU specs
// use bitstep 1 throughout at no cost.
//
//	stuckat-fwd       forwarding stuck-at: core x strategy x multicore at
//	                  bitstep 8 and the bitstep-1 slice, 21 specs; the slice
//	                  holds half of a round's sites. Every site is a full
//	                  replay, so host time is soc.Step and below; inner-loop
//	                  and stuck-at dispatch changes must show here.
//	transition-fwd    the same 21 specs with transition faults. About 86% of
//	                  sites take the checkpoint, fast-forward or golden
//	                  shortcut; the control workload for stuck-at-only
//	                  changes, where the prediction is no change.
//	control-hdcu-icu  HDCU stuck-at (core x strategy x multicore at bitstep
//	                  8 and the bitstep-1 slice) and ICU stuck-at (core x
//	                  strategy x multicore at bitstep 1): 39 specs. The
//	                  longest runs, the only crashed verdicts, early exits
//	                  and health checks; ICU campaigns are dominated by
//	                  golden capture and arena set-up.
//	service-mix       the 36 multicore specs of the three families above
//	                  plus the bitstep-1 transition slice (1152-site jobs,
//	                  the largest verdict streams), submitted to an
//	                  in-process serve.Server (fresh store in a temporary
//	                  directory, httptest loopback, a client of at most two
//	                  connections) and drained by a serve.Worker{Drain:
//	                  true}. Each spec is submitted cold once, and once all
//	                  have been, resubmitted three times, which must be
//	                  full cache hits: the write path (leases, verdict
//	                  batches, journal appends) and the read path (folding
//	                  the store) in one workload.
//
// A run is a closed loop: one client, one job in flight, each job on
// GOMAXPROCS arena goroutines (Workers = GOMAXPROCS = nproc). Campaign
// jobs call core.RunCampaignOpts on a built spec, the path cmd/faultsim
// takes. After set-up and one untimed warm-up job the run measures whole
// rounds; a round runs every spec of the census once, in an order drawn
// from -seed (service-mix draws the order of its cold jobs and, apart,
// of the resubmissions that follow them; interleaving the two moved
// peak_rss_mb by 11% between seeds, see schedule). The number of rounds is -seconds divided by the round's
// nominal time on the reference box (2-CPU Xeon, GOMAXPROCS 2), rounded
// down, so both sides of a comparison do the same work: at -seconds 20,
// 105 jobs in stuckat-fwd, 336 in transition-fwd, 117 in control-hdcu-icu
// and 312 submissions in service-mix. Every job starts on a collected
// heap (runtime.GC outside the timed interval), as a campaign in a fresh
// cmd/faultsim process does. The census is deliberate: specs
// drawn at random moved job_s_p50 by up to 39% between seeds, because one
// spec space holds jobs from 20 ms to 2.6 s. The modelled caches start
// empty in every run: the paper's loading loop is what fills them.
//
// Every report is rendered with serve.MarshalReport and compared byte for
// byte, by SHA-256, with the reference-mode report of its spec
// (CampaignOptions{Reference: true}: full budget, no early exit, no
// shortcuts), stored in reference.json. A job fails on an error, a
// mismatch, a panicked verdict, or, for a service resubmission, any
// simulated site. Failures are counted in the result's failed field
// against attempted; they are not a metric, since a metric must never
// read 0. -write-reference regenerates reference.json after a change to
// the model itself; a change that only makes campaigns faster must not
// need it.
//
// # End-to-end metrics
//
// Each is reported per workload by an untraced run. Times are in
// reference seconds (see calib.go): wall time scaled by how long a fixed
// calibration kernel, sampled between the jobs of the same round, took
// against its time on the reference box. That box is a shared VM whose
// speed drifted by up to 50% within minutes. Each kernel sample follows a
// forced collection, so garbage a job leaves behind does not slow the
// kernel and divide its own cost out of the job's time. The result record
// keeps the wall-time values too, as wall.*, with the run's
// bench.speed_factor. Medians and percentiles are Harrell-Davis estimates
// (stats.go): the job times of a census cluster by spec, and a single
// order statistic jumps between clusters from run to run. The bound, from
// BENCHMARK.json, is the share by which the metric may get worse before a
// change counts as a regression, set from the spread (interquartile range
// over median) of ten runs with ten seeds. Over the two interleaved
// ten-seed sets in cmd/bench/results the spreads of the scaled values
// were 2.7-5.8% for sites_per_s, 3.3-9.8% for job_s_p50, 4.0-8.6% for
// job_s_p90, 0.8-1.8% for peak_rss_mb and 3.0-9.3% for setup_s (wall-time
// values: 14-52%), and the two sets' medians agreed within 3.8%. Another
// box of the same shape spread the scaled times by up to 9% (sites_per_s)
// and 14% (job_s_p90 of control-hdcu-icu), so the time bounds are two to
// three times the widest spread seen rather than three times the spread
// here; the box's own speed is the limit. job_s_p90, which rests on the
// slowest tenth of the jobs, gets 24%, and setup_s, whose passes each
// build the census once, the largest bound, 25%.
//
//	metric       unit     better  bound  definition
//	sites_per_s  sites/s  higher  20%    Σ sites / Σ job time, over the jobs
//	                                     that ran the engine (service-mix:
//	                                     the cold jobs).
//	job_s_p50    s        lower   20%    median job time: one
//	                                     RunCampaignOpts call, or submit →
//	                                     report of one service submission.
//	                                     In service-mix three of four
//	                                     submissions are cache hits, so the
//	                                     median is a cached job and p90 a
//	                                     cold one.
//	job_s_p90    s        lower   24%    p90 of the same samples; at n=100
//	                                     exactly 10 lie beyond it, and every
//	                                     workload has n >= 100 at -seconds
//	                                     20.
//	setup_s      s        lower   25%    Σ Spec.Build over the census
//	                                     (golden run, traffic recording,
//	                                     fingerprint) after one warm-up
//	                                     Build, median of 9 passes; in
//	                                     service-mix each pass also starts
//	                                     and stops a server.
//	peak_rss_mb  MB       lower   15%    VmHWM of a timed round, reset at
//	                                     its start; the median round.
//
// # Traced run
//
// -trace 1 reports the per-layer metrics instead: BENCHMARK.json's
// per_layer list on standard output, and in the result record and the
// trace directory also those that exist only on some workloads, such as
// core.run_us.checkpoint_restore. Per-layer
// times are wall times. The run alternates untraced and traced rounds. A
// traced round attaches a fresh telemetry registry to the engine (and to
// the service worker), records spans from this program's own files around
// every call into a layer (workload → job → Build, RunCampaignOpts,
// reference check, HTTP calls, timed client-side by an
// http.RoundTripper), and takes a CPU profile: the per-cycle layers (isa,
// cpu, icu, cache, bus, mem, soc) get their self-time share from the
// profile, because a span per soc.Step would cost more than the work it
// measures; the calibration kernel's own samples are left out of the
// shares, while the forced collections between jobs collect the jobs' own
// garbage and count as runtime. Counts come from the first traced round, which
// runs every spec once. After the rounds, layer probes
// call each layer's public functions on the workload's own specs: a
// golden core.NewArena per spec (construction time, the simulated
// statistics, cycles/s, soc Reset/Snapshot/Restore), isa.Decode over the
// programs, fault.Journal.Record on a temporary journal, and two specs run
// directly and through a fresh server (the serve layer's call times and
// overhead). trace.overhead_ratio is the traced rounds' sites/s over the
// untraced rounds'; in cmd/bench/results it read 0.92-1.03, so tracing
// costs less than the run-to-run noise. With -trace-dir DIR the run writes
// DIR/<workload>.spans.json, one CPU profile per traced round
// (DIR/<workload>.cpu<i>.pprof, merged by go tool pprof) and
// DIR/<workload>.layers.json. Nothing in the program itself is traced.
//
// The sim.* metrics are simulated statistics of the census (golden
// cycles, IPC, stall cycles, cache hit ratios, bus utilization, fault
// coverage) and the core.dispatch.* metrics exact dispatch counts; both
// repeat exactly for any seed, so a change that only speeds up the
// simulator must leave them identical. The model has no silicon
// reference in this repository, so it is unvalidated and no error figure
// is given.
//
// # Comparing two commits
//
// Build both commits' benchmarks, run at least ten pairs alternating
// which side runs first, each pair with its own seed and the same
// -seconds, and compare:
//
//	bench -compare parent/*.json -- change/*.json
//
// For each workload and end-to-end metric it prints both sides' medians
// and quartiles, how much worse the change's median is against the bound,
// how many pairs the change won, and a verdict: better (at least 9 of 10
// pairs won and the medians differ by more than the parent's
// interquartile range), worse (median worse by more than the bound),
// unresolved (fewer than 10 pairs, or the parent's spread wider than the
// bound unless every change run beats every parent run) or unchanged,
// followed by both sides' medians of the unscaled wall.* value, so that a
// difference the calibration factor divided out still shows. It
// pairs runs by seed and refuses sides whose seeds differ, flags any sim.*
// or core.dispatch.* value that differs between traced runs, and exits 1
// on a worse metric or a flag. A claim must also hold on a seed not used
// while the change was written.
package main
