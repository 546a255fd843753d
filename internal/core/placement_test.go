package core

import (
	"math/rand/v2"
	"path/filepath"
	"reflect"
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
// the placement predicts for the universe, summed over both workers; it is
// 0 in reference mode, which probes no activations; and it is a nil handle
// when telemetry is detached.
func TestPrefixCounterMatchesPlacement(t *testing.T) {
	c := heldCampaign(t, fwdRoutine, Plain{}, false,
		universe(fault.TransitionFaults(fault.ListOptions{DataBits: 32, BitStep: 4})))
	reg := telemetry.NewRegistry()
	if _, err := c.Run(c.Sites, CampaignOptions{Workers: 2, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	g := c.eng.gold
	if iv := resolveCheckpointInterval(0, c.Budget); len(g.ckpts) == 0 || evenlySpaced(g, iv) {
		t.Fatalf("capture kept its uniform checkpoints %v (interval %d)", g.cycles(), iv)
	}
	want := prefixCycles(g.activations(c.Sites), g.cycles())
	if got := reg.Counter("arena_prefix_cycles_total").Value(); got != want || want == 0 {
		t.Errorf("arena_prefix_cycles_total = %d, want %d", got, want)
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
// checkpoints: the universe's, less those a resumed journal settles. A
// fresh run re-places them; a resumed run whose journal settles every site
// simulates none, so its capture keeps the uniform checkpoints rather than
// pay a second golden pass for nothing, and both runs report the same.
func TestResumePlacesForUnsettledSites(t *testing.T) {
	sites := universe(fault.TransitionFaults(fault.ListOptions{DataBits: 32, BitStep: 4}))
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	fresh := heldCampaign(t, fwdRoutine, Plain{}, false, sites)
	want, err := fresh.Run(sites, CampaignOptions{Workers: 2, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	iv := resolveCheckpointInterval(0, fresh.Budget)
	if g := fresh.eng.gold; len(g.ckpts) == 0 || evenlySpaced(g, iv) {
		t.Fatalf("fresh run kept its uniform checkpoints %v (interval %d)", g.cycles(), iv)
	}
	resumed := heldCampaign(t, fwdRoutine, Plain{}, false, sites)
	got, err := resumed.Run(sites, CampaignOptions{Workers: 2, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if g := resumed.eng.gold; len(g.ckpts) == 0 || !evenlySpaced(g, iv) {
		t.Errorf("resumed run over a settled journal placed checkpoints at %v (interval %d)", g.cycles(), iv)
	}
	if !reflect.DeepEqual(got.Results, want.Results) || got.Detected != want.Detected {
		t.Error("resumed run reports differently from the fresh one")
	}
}
