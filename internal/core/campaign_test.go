package core

import (
	"crypto/sha256"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// heldCampaign records a single-core campaign of routine mk under
// strategy strat over sites.
func heldCampaign(t *testing.T, mk func(int) *sbst.Routine, strat Strategy, cached bool, sites []fault.Site) *Campaign {
	t.Helper()
	c, err := Record(cfg(1, cached, true, [3]int{}), jobsSameRoutine(1, mk, func(int) Strategy { return strat }), 0, sites)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// universe lists one fault family at the given bit step, sorted.
func universe(sites []fault.Site) []fault.Site {
	fault.SortSites(sites)
	return sites
}

// captures reads the golden-capture counter of reg.
func captures(reg *telemetry.Registry) int64 {
	return reg.Counter("arena_golden_captures_total").Value()
}

// callArenas builds the n arenas a Run call of c over sites builds in
// engine mode opt, its capture checkpointed every iv cycles (an optimized
// call passes checkpointInterval(c.Budget), a reference one 0) and placed
// for the sites journal j (nil for none) leaves unsettled.
func callArenas(t *testing.T, c *Campaign, opt ArenaOptions, iv int64, sites []fault.Site, j *fault.Journal, n int) []*Arena {
	t.Helper()
	prog := c.prog
	if prog == nil {
		var err error
		if prog, err = buildProgram(c.Job); err != nil {
			t.Fatal(err)
		}
	}
	arenas, err := c.arenas(prog, opt, iv, sites, j, n)
	if err != nil {
		t.Fatal(err)
	}
	return arenas
}

// simulate settles sites on arenas, one worker goroutine each, as Run
// does, and returns the report.
func simulate(t *testing.T, arenas []*Arena, sites []fault.Site) fault.Report {
	t.Helper()
	runners := make([]fault.RunFunc, len(arenas))
	for w, a := range arenas {
		runners[w] = a.Run
	}
	rep, err := fault.Simulate(sites, runners, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCampaignShardedRunsMatchOneCall pins one capture per call: a
// campaign run as one Campaign.Run call per service shard settles the same
// verdicts and golden as one RunCampaignOpts call over the whole universe,
// each shard's dispatch counts its own sites, and the golden capture runs
// once per shard. The summed dispatch counts may differ from the one
// call's: each shard places its capture's checkpoints for its own sites.
func TestCampaignShardedRunsMatchOneCall(t *testing.T) {
	opts := fault.ListOptions{DataBits: 32, BitStep: 8}
	cases := []struct {
		name   string
		mk     func(int) *sbst.Routine
		strat  Strategy
		cached bool
		sites  []fault.Site
		shard  int
	}{
		{"forwarding stuck-at", fwdRoutine, CacheBased{WriteAllocate: true}, true, universe(fault.ForwardingLogic(opts)), 64},
		{"forwarding transition", fwdRoutine, Plain{}, false, universe(fault.TransitionFaults(opts)), 64},
		{"hdcu stuck-at", hdcuRoutine, Plain{}, false, universe(append(fault.HDCU(opts), fault.PerfCounters(opts)...)), 64},
		// ICU's universe is smaller than one 64-site shard.
		{"icu stuck-at", icuRoutine, CacheBased{WriteAllocate: true}, true, universe(fault.ICU(fault.ListOptions{DataBits: 32, BitStep: 1})), 16},
	}
	for _, tc := range cases {
		c := heldCampaign(t, tc.mk, tc.strat, tc.cached, tc.sites)
		ranges := fault.ShardRanges(len(c.Sites), tc.shard)
		if len(ranges) < 2 {
			t.Fatalf("%s: %d sites make %d shard(s); the test needs several", tc.name, len(c.Sites), len(ranges))
		}
		want, err := RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget, CampaignOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}

		reg := telemetry.NewRegistry()
		var results []fault.SiteResult
		for _, r := range ranges {
			rep, err := c.Run(c.Sites[r.Lo:r.Hi], CampaignOptions{Workers: 2, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Golden != want.Golden || rep.GoldenOK != want.GoldenOK {
				t.Fatalf("%s: shard %v golden %08x/%v, one call %08x/%v",
					tc.name, r, rep.Golden, rep.GoldenOK, want.Golden, want.GoldenOK)
			}
			if got := rep.Dispatch.Total(); got != int64(r.Len()) {
				t.Errorf("%s: shard %v dispatch counts %d sites, want its %d", tc.name, r, got, r.Len())
			}
			results = append(results, rep.Results...)
		}
		if len(results) != len(want.Results) {
			t.Fatalf("%s: %d sharded verdicts, want %d", tc.name, len(results), len(want.Results))
		}
		for i := range results {
			if results[i] != want.Results[i] {
				t.Fatalf("%s: site %d (%v): sharded %+v, one call %+v", tc.name, i, c.Sites[i], results[i], want.Results[i])
			}
		}
		if n := captures(reg); n != int64(len(ranges)) {
			t.Errorf("%s: %d golden captures over %d shards, want one per shard", tc.name, n, len(ranges))
		}
	}
}

// TestCampaignConcurrentRuns pins that Run is safe to call from several
// goroutines at once on one Campaign: both calls settle the one-shot
// report's verdicts, each on its own capture.
func TestCampaignConcurrentRuns(t *testing.T) {
	sites := campaignSites()
	c := heldCampaign(t, fwdRoutine, Plain{}, false, sites)
	want, err := RunCampaignOpts(c.Cfg, c.Core, c.Job, sites, c.Budget, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var reps [2]fault.Report
	var errs [2]error
	var wg sync.WaitGroup
	for g := range reps {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reps[g], errs[g] = c.Run(sites, CampaignOptions{Workers: 2, Telemetry: reg})
		}(g)
	}
	wg.Wait()
	for g, rep := range reps {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !rep.SameVerdicts(want) {
			t.Errorf("concurrent call %d: report differs from the one-shot run", g)
		}
		if rep.Dispatch.Total() != int64(len(sites)) {
			t.Errorf("concurrent call %d: dispatch counts %d sites, want %d", g, rep.Dispatch.Total(), len(sites))
		}
	}
	if n := captures(reg); n != 2 {
		t.Errorf("%d golden captures for two concurrent calls, want 2", n)
	}
}

// imageSum hashes a shared image: the whole flash and every sealed
// baseline.
func imageSum(img *soc.Image) [sha256.Size]byte {
	h := sha256.New()
	flash := make([]byte, img.Flash.Size())
	img.Flash.Read(0, flash)
	h.Write(flash)
	h.Write(img.SRAM)
	for _, tcm := range img.TCM {
		h.Write(tcm[0])
		h.Write(tcm[1])
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// wildSites are forwarding faults whose runs store into flash or into the
// core's TCM under the plain strategy, where the golden run stores into
// SRAM: wrong address bits forwarded into the store's address operand, and
// a stuck mux select.
var wildSites = []fault.Site{
	{Unit: fault.UnitFwd, Signal: fault.SigMuxData, Lane: 1, Path: fault.PathCascade, Bit: 28, Stuck: 1},
	{Unit: fault.UnitFwd, Signal: fault.SigMuxData, Lane: 1, Path: fault.PathCascade, Bit: 29, Stuck: 0},
	{Unit: fault.UnitFwd, Signal: fault.SigMuxSel, Lane: 0, Bit: 0, Stuck: 1},
}

// TestSharedImageSurvivesWildStores is the oracle for sharing one memory
// image across a Run call's arenas: a universe whose runs store into
// flash, SRAM and TCM, settled on the call's three arenas, leaves the
// SHA-256 of the flash image and of the sealed baselines what a pristine
// build has, in both engine modes.
func TestSharedImageSurvivesWildStores(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	pristine, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := imageSum(pristine.gold.img)

	// The universe is wild: its runs store into every region.
	probe, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	var flash, sram, tcm bool
	probe.s.Cores[0].Core.SetStoreObserver(func(addr uint32, val uint64, size int) {
		flash = flash || addr < mem.FlashBase+mem.FlashSize
		sram = sram || (addr >= mem.SRAMBase && addr < mem.SRAMBase+mem.SRAMSize)
		tcm = tcm || mem.InTCM(addr, 0)
		probe.observe(addr, val, size)
	})
	probe.Run(fault.None)
	for _, s := range wildSites {
		probe.Run(fault.PlaneFor(s))
	}
	if !flash || !sram || !tcm {
		t.Fatalf("wild sites stored into flash=%v sram=%v tcm=%v; want all three", flash, sram, tcm)
	}

	sites := append(append([]fault.Site(nil), wildSites...), campaignSites()...)
	c := &Campaign{Cfg: replayCfg, Core: 0, Job: job, Sites: sites, Budget: budget}
	for _, ref := range []bool{false, true} {
		var iv int64
		if !ref {
			iv = checkpointInterval(budget)
		}
		arenas := callArenas(t, c, ArenaOptions{Reference: ref}, iv, sites, nil, 3)
		img := arenas[0].gold.img
		simulate(t, arenas, sites)
		if got := imageSum(img); got != want {
			t.Fatalf("reference=%v: shared image hash %x after the campaign, pristine %x", ref, got, want)
		}
	}
}

// TestCampaignFailedCaptureGolden pins the golden verdict of a campaign
// whose golden run cannot finish within the budget: the report's
// Golden/GoldenOK come from the failed capture and equal what a fault-free
// replay on an arena returns, in both engine modes.
func TestCampaignFailedCaptureGolden(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 1, Plain{})
	short := (budget - earlySlack) / stallFactor / 2 // half the golden run
	a, err := NewArena(replayCfg, 0, job, short, ArenaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantSig, wantOK := a.Run(fault.None)
	if wantOK || wantSig == 0 {
		t.Fatalf("fault-free replay %08x/%v; the test needs a failed run with a nonzero signature", wantSig, wantOK)
	}
	sites := campaignSites()[:8]
	for _, ref := range []bool{false, true} {
		rep, err := RunCampaignOpts(replayCfg, 0, job, sites, short, CampaignOptions{Workers: 2, Reference: ref})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Golden != wantSig || rep.GoldenOK != wantOK {
			t.Errorf("reference=%v: golden %08x/%v, fault-free replay %08x/%v", ref, rep.Golden, rep.GoldenOK, wantSig, wantOK)
		}
	}
}
