// Package repro's root benchmarks regenerate every table and figure of the
// paper (in reduced "quick" form so a full -bench=. pass stays tractable on
// a laptop; run cmd/repro for the full campaigns) and measure the ablations
// called out in DESIGN.md. Benchmarks report experiment outcomes as custom
// metrics so a -benchmem run doubles as a results check.
package repro_test

import (
	"io"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/serve"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

var quick = experiments.Options{Quick: true}

// BenchmarkTableI regenerates the stall-versus-core-count measurement.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[2].IFStalls)/float64(rows[0].IFStalls), "if-stall-growth-3c")
	}
}

// BenchmarkTableII regenerates the forwarding-logic coverage campaign.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableII(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MaxFC-rows[0].MinFC, "coreA-FC-spread-pts")
		b.ReportMetric(rows[0].CacheFC, "coreA-cache-FC-pct")
	}
}

// BenchmarkCampaignEngineSpeedup times the quick Table II campaign under
// the reference arena mode (full watchdog budget every run, no shortcuts)
// and the optimized mode (divergence-bounded early exit plus golden-run
// checkpointing), verifies the results are identical, and reports the
// wall-clock ratio reference/optimized as speedup-vs-reference, plus both
// times.
func BenchmarkCampaignEngineSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		refRows, err := experiments.TableII(experiments.Options{Quick: true, Reference: true})
		if err != nil {
			b.Fatal(err)
		}
		ref := time.Since(t0)

		t0 = time.Now()
		arenaRows, err := experiments.TableII(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		arena := time.Since(t0)

		if !reflect.DeepEqual(refRows, arenaRows) {
			b.Fatalf("modes disagree:\nreference %+v\noptimized %+v", refRows, arenaRows)
		}
		b.ReportMetric(ref.Seconds()/arena.Seconds(), "speedup-vs-reference")
		b.ReportMetric(arena.Seconds(), "arena-s")
		b.ReportMetric(ref.Seconds(), "reference-s")
	}
}

// BenchmarkTableIII regenerates the ICU/HDCU coverage campaign.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIII(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MultiCacheFC-rows[0].SingleFC, "icuA-FC-gain-pts")
	}
}

// BenchmarkTableIV regenerates the TCM-versus-cache comparison.
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIV(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].ExecutionTime)/float64(rows[0].ExecutionTime), "cache-vs-tcm-time")
		b.ReportMetric(float64(rows[0].MemoryOverhead), "tcm-overhead-bytes")
	}
}

// BenchmarkFigure1 regenerates the pipeline diagrams.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(quick)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ForwardingUsed || !res.ForwardingLost {
			b.Fatal("figure 1 shape lost")
		}
	}
}

// BenchmarkFigure2 regenerates the structural comparison.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.OverheadBytes), "wrapper-overhead-bytes")
	}
}

// BenchmarkDelayFaultExtension regenerates the transition-fault campaign
// (the paper's future-work note implemented). Campaigns run with golden-run
// checkpointing on by default: Transition runs skip the golden prefix
// before their site's first activating edge, and never-activating sites
// are served the golden verdict outright.
func BenchmarkDelayFaultExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DelayFaults(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MaxFC-rows[0].MinFC, "coreA-delay-FC-spread-pts")
		b.ReportMetric(rows[0].CacheFC, "coreA-delay-cache-FC-pct")
	}
}

// BenchmarkCheckpointSpeedup times the quick transition-fault sweep under
// the reference arena mode and the optimized mode (early exit, with
// checkpoints placed where each campaign's sites activate), verifies both
// produce identical rows, and reports the wall-clock speedup. The
// detected-fault runs bound it: every sound engine must simulate their
// diverged suffixes (PERF.md records the measured ratios).
func BenchmarkCheckpointSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		refRows, err := experiments.DelayFaults(experiments.Options{Quick: true, Reference: true})
		if err != nil {
			b.Fatal(err)
		}
		ref := time.Since(t0)

		t0 = time.Now()
		ckptRows, err := experiments.DelayFaults(quick)
		if err != nil {
			b.Fatal(err)
		}
		ckpt := time.Since(t0)

		if !reflect.DeepEqual(refRows, ckptRows) {
			b.Fatalf("modes disagree:\nreference %+v\nckpt   %+v", refRows, ckptRows)
		}
		b.ReportMetric(ref.Seconds()/ckpt.Seconds(), "speedup-vs-reference")
		b.ReportMetric(ckpt.Seconds(), "ckpt-s")
	}
}

// BenchmarkCampaignTelemetryOverhead times the quick Table II campaign with
// telemetry fully attached (registry + event stream into a discard writer)
// against the detached default, verifies the verdicts are identical, and
// reports the relative cost. The acceptance bar is "no measurable overhead
// with flags off"; the attached arm documents what turning everything on
// costs (atomic counters + histogram observes + one JSONL line per site).
func BenchmarkCampaignTelemetryOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		plainRows, err := experiments.TableII(quick)
		if err != nil {
			b.Fatal(err)
		}
		plain := time.Since(t0)

		reg := telemetry.NewRegistry()
		t0 = time.Now()
		instRows, err := experiments.TableII(experiments.Options{
			Quick:     true,
			Telemetry: reg,
			Events:    telemetry.NewEventLog(io.Discard),
		})
		if err != nil {
			b.Fatal(err)
		}
		inst := time.Since(t0)

		if !reflect.DeepEqual(plainRows, instRows) {
			b.Fatalf("telemetry changed results:\nplain %+v\ninstrumented %+v", plainRows, instRows)
		}
		if reg.Counter("campaign_sites_settled_total").Value() == 0 {
			b.Fatal("instrumented run settled no sites into the registry")
		}
		b.ReportMetric(inst.Seconds()/plain.Seconds(), "attached-vs-detached")
		b.ReportMetric(plain.Seconds(), "detached-s")
	}
}

// --- Ablations (DESIGN.md section 5) ---

func hdcuJobs(strategy core.Strategy, bases [soc.NumCores]uint32) [soc.NumCores]*core.CoreJob {
	var jobs [soc.NumCores]*core.CoreJob
	for id := 0; id < soc.NumCores; id++ {
		jobs[id] = &core.CoreJob{
			Routine:  sbst.NewHDCUTest(sbst.HDCUOptions{DataBase: mem.SRAMBase + 0x2000*uint32(id+1)}),
			Strategy: strategy,
			CodeBase: bases[id],
		}
	}
	return jobs
}

// distinctSigs runs the HDCU routine under the given strategy across
// scenario variations and counts distinct core-A signatures (1 =
// deterministic).
func distinctSigs(b *testing.B, strategy core.Strategy, cached, writeAlloc bool) int {
	b.Helper()
	sigs := map[uint32]bool{}
	scenarios := []struct {
		delays [soc.NumCores]int
		bases  [soc.NumCores]uint32
	}{
		{[3]int{0, 0, 0}, [3]uint32{soc.CodeLow, soc.CodeMid, soc.CodeHigh}},
		{[3]int{0, 9, 17}, [3]uint32{soc.CodeLow, soc.CodeHigh, soc.CodeMid}},
		{[3]int{5, 0, 11}, [3]uint32{soc.CodeLow, soc.CodeMid, soc.CodeHigh}},
	}
	for _, sc := range scenarios {
		cfg := soc.DefaultConfig()
		for id := 0; id < soc.NumCores; id++ {
			cfg.Cores[id].CachesOn = cached
			cfg.Cores[id].WriteAlloc = writeAlloc
			cfg.Cores[id].StartDelay = sc.delays[id]
		}
		results, _, err := core.RunJobs(cfg, hdcuJobs(strategy, sc.bases), 5_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if results[0] == nil || results[0].Wedged {
			b.Fatal("run failed")
		}
		sigs[results[0].Signature] = true
	}
	return len(sigs)
}

// BenchmarkAblationLoadingLoops compares the full strategy (loading loop +
// execution loop) against a single-iteration variant: without the loading
// loop the "execution loop" runs on cold caches and loses determinism.
func BenchmarkAblationLoadingLoops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := distinctSigs(b, core.CacheBased{WriteAllocate: true, Iterations: 2}, true, true)
		without := distinctSigs(b, core.CacheBased{WriteAllocate: true, Iterations: 1}, true, true)
		b.ReportMetric(float64(with), "distinct-sigs-2-iter")
		b.ReportMetric(float64(without), "distinct-sigs-1-iter")
		if with != 1 {
			b.Fatal("full strategy lost determinism")
		}
		if without == 1 {
			b.Log("note: single-iteration variant happened to stay stable on this scenario set")
		}
	}
}

// BenchmarkAblationWritePolicy shows the paper's rule 1: with a
// no-write-allocate data cache, only the dummy loads after stores keep the
// execution loop off the bus. Without them every checkpoint store misses
// again in the execution loop and becomes a bus write, re-coupling the
// "isolated" loop to system traffic (measured as extra data-side misses
// and write transactions).
func BenchmarkAblationWritePolicy(b *testing.B) {
	run := func(dummy bool) (misses, busWrites int) {
		cfg := soc.DefaultConfig()
		var jobs [soc.NumCores]*core.CoreJob
		for id := 0; id < soc.NumCores; id++ {
			cfg.Cores[id].CachesOn = true
			cfg.Cores[id].WriteAlloc = false
			jobs[id] = &core.CoreJob{
				Routine: sbst.NewForwardingTest(sbst.ForwardingOptions{
					DataBase:            mem.SRAMBase + 0x2000*uint32(id+1),
					WithPerfCounters:    true,
					DummyLoadAfterStore: dummy,
				}),
				// DummyLoadsPresent deliberately asserted in both arms so
				// the ablation can run the forbidden configuration.
				Strategy: core.CacheBased{WriteAllocate: false, DummyLoadsPresent: true},
				CodeBase: soc.CodeLow + uint32(id)*0x10000,
			}
		}
		results, s, err := core.RunJobs(cfg, jobs, 5_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if results[0] == nil || !results[0].OK {
			b.Fatal("run failed")
		}
		return s.Cores[0].DCache.Stats().Misses, s.Bus.StatsFor(1).Transactions
	}
	for i := 0; i < b.N; i++ {
		missWith, writesWith := run(true)
		missWithout, writesWithout := run(false)
		b.ReportMetric(float64(missWith), "dmisses-dummy-loads")
		b.ReportMetric(float64(missWithout), "dmisses-no-dummy")
		if missWithout <= missWith || writesWithout <= writesWith {
			b.Fatal("missing dummy loads did not re-couple the execution loop to the bus")
		}
	}
}

// BenchmarkAblationArbiter compares round-robin against fixed-priority
// arbitration: fixed priority starves the low-priority core, inflating its
// stall counts.
func BenchmarkAblationArbiter(b *testing.B) {
	run := func(policy bus.Arbitration) float64 {
		cfg := soc.DefaultConfig()
		cfg.Arbitration = policy
		var jobs [soc.NumCores]*core.CoreJob
		for id := 0; id < soc.NumCores; id++ {
			jobs[id] = &core.CoreJob{
				Routines: sbst.StandardSTL(mem.SRAMBase + 0x2000*uint32(id+1)),
				Strategy: core.Plain{},
				CodeBase: soc.CodeLow + uint32(id)*0x8000,
			}
		}
		results, _, err := core.RunJobs(cfg, jobs, 10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := results[0].IFStall, results[0].IFStall
		for id := 1; id < soc.NumCores; id++ {
			if results[id].IFStall < lo {
				lo = results[id].IFStall
			}
			if results[id].IFStall > hi {
				hi = results[id].IFStall
			}
		}
		return float64(hi) / float64(lo)
	}
	for i := 0; i < b.N; i++ {
		rr := run(bus.RoundRobin)
		fp := run(bus.FixedPriority)
		b.ReportMetric(rr, "if-stall-imbalance-rr")
		b.ReportMetric(fp, "if-stall-imbalance-prio")
		if fp <= rr {
			b.Log("note: fixed priority did not increase imbalance on this workload")
		}
	}
}

// BenchmarkAblationFlashLatency sweeps the flash wait states: slower flash
// widens the fetch gaps, further suppressing forwarding-path excitation in
// uncached runs (the single-core coverage limit of Table III).
func BenchmarkAblationFlashLatency(b *testing.B) {
	coverage := func(latency int) float64 {
		sites := fault.Sample(func() []fault.Site {
			s := fault.ForwardingLogic(fault.ListOptions{DataBits: 32, BitStep: 8})
			fault.SortSites(s)
			return s
		}(), 2)
		routine := sbst.NewForwardingTest(sbst.ForwardingOptions{DataBase: mem.SRAMBase + 0x2000})
		job := &core.CoreJob{Routine: routine, Strategy: core.Plain{}, CodeBase: soc.CodeLow}
		mkCfg := func(p fault.Plane) soc.Config {
			cfg := soc.DefaultConfig()
			cfg.FlashBanks = []int{latency, latency, latency, latency}
			for id := 0; id < soc.NumCores; id++ {
				cfg.Cores[id].Active = id == 0
			}
			cfg.Cores[0].Plane = p
			return cfg
		}
		run := func(p fault.Plane) (uint32, bool) {
			res, _, err := core.RunSingle(mkCfg(p), 0, job, 3_000_000)
			if err != nil {
				return 0, false
			}
			return res.Signature, res.OK
		}
		// Without a journal Simulate has no error to report.
		rep, _ := fault.Simulate(sites, slices.Repeat([]fault.RunFunc{run}, fault.Workers(0, len(sites))), fault.SimOptions{})
		return rep.Coverage()
	}
	for i := 0; i < b.N; i++ {
		fast := coverage(2)
		slow := coverage(12)
		b.ReportMetric(fast, "FC-flash-2cyc-pct")
		b.ReportMetric(slow, "FC-flash-12cyc-pct")
		if slow >= fast {
			b.Fatal("slower flash should suppress uncached forwarding coverage")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: cycles per
// second of a three-core cached STL run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg := soc.DefaultConfig()
		var jobs [soc.NumCores]*core.CoreJob
		for id := 0; id < soc.NumCores; id++ {
			cfg.Cores[id].CachesOn = true
			cfg.Cores[id].WriteAlloc = true
			jobs[id] = &core.CoreJob{
				Routines: sbst.StandardSTL(mem.SRAMBase + 0x2000*uint32(id+1)),
				Strategy: core.Plain{},
				CodeBase: soc.CodeLow + uint32(id)*0x8000,
			}
		}
		_, s, err := core.RunJobs(cfg, jobs, 10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles += s.Cycle()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "soc-cycles/s")
}

// BenchmarkSoCStep measures the simulator's per-cycle cost, the layer
// under every fault run. Per strategy it runs a reference-mode arena (no
// early exit, no checkpoints, no shortcuts) of the multicore forwarding
// campaign, serving the fault-free golden replay and one stuck-at
// forwarding-mux data site, both full replays from cycle 0, and reports
// ns per simulated cycle and allocations per run.
func BenchmarkSoCStep(b *testing.B) {
	for _, strategy := range []string{"plain", "cache", "tcm"} {
		c, err := serve.Spec{Routine: "forwarding", Strategy: strategy, Multicore: true, BitStep: 8}.Build()
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.NewArena(c.Cfg, c.Core, c.Job, c.Budget, core.ArenaOptions{Reference: true})
		if err != nil {
			b.Fatal(err)
		}
		i := slices.IndexFunc(c.Sites, func(s fault.Site) bool { return s.Signal == fault.SigMuxData })
		for _, run := range []struct {
			name  string
			plane fault.Plane
		}{{"golden", fault.None}, {"muxdata", fault.PlaneFor(c.Sites[i])}} {
			b.Run(strategy+"/"+run.name, func(b *testing.B) {
				b.ReportAllocs()
				var cycles int64
				for range b.N {
					a.Run(run.plane)
					cycles += a.SoC().Cycle()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
			})
		}
	}
}
