package core

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// bruteForcePlacement is the least prefixCycles(acts, ·) over every set of
// at most k checkpoints at cycles 1..max(acts)-1.
func bruteForcePlacement(acts []int64, k int) int64 {
	var hi int64
	for _, a := range acts {
		hi = max(hi, a)
	}
	best := prefixCycles(acts, nil)
	var pick func(from int64, ckpts []int64)
	pick = func(from int64, ckpts []int64) {
		best = min(best, prefixCycles(acts, ckpts))
		if len(ckpts) == k {
			return
		}
		for p := from; p < hi; p++ {
			pick(p+1, append(ckpts, p))
		}
	}
	pick(1, nil)
	return best
}

// evenlySpaced reports whether every checkpoint of g sits on a multiple of
// the interval iv, as the capture run takes them.
func evenlySpaced(g *capture, iv int64) bool {
	for _, cy := range g.cycles() {
		if cy%iv != 0 {
			return false
		}
	}
	return true
}

// TestPlacementMatchesBruteForce pins the DP against exhaustive search on
// small random inputs: repeated activation cycles (ties), cycles 0 and 1,
// and more checkpoints than distinct cycles. The placement must reach the
// brute-force minimum with min(k, distinct cycles >= 2) ascending
// checkpoints, each one cycle before an activation.
func TestPlacementMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 64))
	for iter := 0; iter < 400; iter++ {
		acts := make([]int64, 1+rng.IntN(9))
		hi := int64(2 + rng.IntN(18))
		for i := range acts {
			acts[i] = rng.Int64N(hi)
		}
		if iter%3 == 0 {
			acts = append(acts, acts[:len(acts)/2]...)
		}
		k := rng.IntN(5)
		pos := placement(acts, k)
		if got, want := prefixCycles(acts, pos), bruteForcePlacement(acts, k); got != want {
			t.Fatalf("acts %v k=%d: placement %v replays %d, brute force %d", acts, k, pos, got, want)
		}
		distinct := map[int64]bool{}
		for _, a := range acts {
			if a >= 2 {
				distinct[a] = true
			}
		}
		if len(pos) != min(k, len(distinct)) {
			t.Fatalf("acts %v k=%d: %d checkpoints, want %d", acts, k, len(pos), min(k, len(distinct)))
		}
		for i, p := range pos {
			if !distinct[p+1] || (i > 0 && p <= pos[i-1]) {
				t.Fatalf("acts %v k=%d: placement %v is not ascending one cycle before activations", acts, k, pos)
			}
		}
	}
}

// TestPrefixCounterMatchesPlacement pins arena_prefix_cycles_total: over a
// campaign whose capture re-placed its checkpoints it equals the replay
// the placement predicts for the universe, summed over both workers, and
// over a call that simulates part of the universe, the replay a capture
// placed for that part predicts; it is 0 in reference mode, which probes
// no activations; and it is a nil handle when telemetry is detached.
func TestPrefixCounterMatchesPlacement(t *testing.T) {
	c := heldCampaign(t, fwdRoutine, Plain{}, false,
		universe(fault.TransitionFaults(fault.ListOptions{DataBits: 32, BitStep: 4})))
	reg := telemetry.NewRegistry()
	if _, err := c.Run(c.Sites, CampaignOptions{Workers: 2, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	iv := checkpointInterval(c.Budget)
	g := callArenas(t, c, ArenaOptions{}, iv, c.Sites, nil, 2)[0].gold
	if len(g.ckpts) == 0 || evenlySpaced(g, iv) {
		t.Fatalf("capture kept its uniform checkpoints %v (interval %d)", g.cycles(), iv)
	}
	want := prefixCycles(g.activations(c.Sites), g.cycles())
	if got := reg.Counter("arena_prefix_cycles_total").Value(); got != want || want == 0 {
		t.Errorf("arena_prefix_cycles_total = %d, want %d", got, want)
	}

	part := c.Sites[:len(c.Sites)/3]
	gp := callArenas(t, c, ArenaOptions{}, iv, part, nil, 2)[0].gold
	want = prefixCycles(gp.activations(part), gp.cycles())
	if prefixCycles(g.activations(part), g.cycles()) == want {
		t.Fatal("placing for the universe and for the part predict the same replay; the test cannot tell them apart")
	}
	shard := telemetry.NewRegistry()
	if _, err := c.Run(part, CampaignOptions{Workers: 2, Telemetry: shard}); err != nil {
		t.Fatal(err)
	}
	if got := shard.Counter("arena_prefix_cycles_total").Value(); got != want {
		t.Errorf("a call over %d of %d sites replayed %d prefix cycles, a capture placed for them predicts %d", len(part), len(c.Sites), got, want)
	}

	ref := telemetry.NewRegistry()
	if _, err := c.Run(c.Sites, CampaignOptions{Workers: 2, Reference: true, Telemetry: ref}); err != nil {
		t.Fatal(err)
	}
	if got := ref.Counter("arena_prefix_cycles_total").Value(); got != 0 {
		t.Errorf("reference mode counted %d prefix cycles, want 0", got)
	}
	if newArenaMetrics(nil).prefix != nil {
		t.Error("detached arena metrics hold a prefix counter")
	}
}

// TestResumePlacesForUnsettledSites pins which sites place a capture's
// checkpoints: the call's, less those a resumed journal settles. A fresh
// run re-places them. A resumed run whose journal settles half the sites
// replays exactly the prefix a capture placed for the other half predicts,
// and its report is the fresh run's. A journal that settles every site
// leaves no site to place for, so the capture keeps the uniform
// checkpoints rather than pay a second golden pass for nothing.
func TestResumePlacesForUnsettledSites(t *testing.T) {
	sites := universe(fault.TransitionFaults(fault.ListOptions{DataBits: 32, BitStep: 4}))
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	c := heldCampaign(t, fwdRoutine, Plain{}, false, sites)
	want, err := c.Run(sites, CampaignOptions{Workers: 2, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	iv := checkpointInterval(c.Budget)
	all := callArenas(t, c, ArenaOptions{}, iv, sites, nil, 2)[0].gold
	if len(all.ckpts) == 0 || evenlySpaced(all, iv) {
		t.Fatalf("fresh run kept its uniform checkpoints %v (interval %d)", all.cycles(), iv)
	}

	full, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the header, the golden and the first half of the verdicts.
	lines := strings.SplitAfter(string(full), "\n")
	if err := os.WriteFile(journal, []byte(strings.Join(lines[:2+len(sites)/2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := fault.ResumeJournal(journal, c.Header)
	if err != nil {
		t.Fatal(err)
	}
	half := callArenas(t, c, ArenaOptions{}, iv, sites, j, 2)[0].gold
	var rest []fault.Site
	for i, s := range sites {
		if _, _, _, ok := j.Settled(i); !ok {
			rest = append(rest, s)
		}
	}
	j.Close()
	wantPrefix := prefixCycles(half.activations(rest), half.cycles())
	if prefixCycles(all.activations(rest), all.cycles()) == wantPrefix {
		t.Fatal("placing for every site and for the unsettled half predict the same replay; the test cannot tell them apart")
	}
	reg := telemetry.NewRegistry()
	got, err := c.Run(sites, CampaignOptions{Workers: 2, Journal: journal, Resume: true, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("arena_prefix_cycles_total").Value(); n != wantPrefix {
		t.Errorf("resumed run replayed %d prefix cycles, a capture placed for its %d unsettled sites predicts %d", n, len(rest), wantPrefix)
	}
	if !reflect.DeepEqual(got.Results, want.Results) || got.Detected != want.Detected {
		t.Error("resumed run reports differently from the fresh one")
	}

	// The journal now settles every site.
	if j, err = fault.ResumeJournal(journal, c.Header); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if g := callArenas(t, c, ArenaOptions{}, iv, sites, j, 2)[0].gold; len(g.ckpts) == 0 || !evenlySpaced(g, iv) {
		t.Errorf("a capture over a settled journal placed checkpoints at %v (interval %d)", g.cycles(), iv)
	}
}
