package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/soc"
)

// specName names a spec as cmd/bench does, e.g. "hdcu/c0/tcm/sc/bs8/stuckat".
func specName(s serve.Spec) string {
	mc := "sc"
	if s.Multicore {
		mc = "mc"
	}
	return fmt.Sprintf("%s/c%d/%s/%s/bs%d/%s", s.Routine, s.Core, s.Strategy, mc, s.BitStep, s.Faults)
}

// placementSpecs returns the forwarding stuck-at and transition specs at
// bitstep 8 on every core, and the core-0 HDCU (bitstep 8) and ICU specs,
// under every strategy, single- and multi-core.
func placementSpecs() []serve.Spec {
	var out []serve.Spec
	add := func(routine, faults string, core, bitstep int) {
		for _, st := range []string{"plain", "cache", "tcm"} {
			for _, mc := range []bool{false, true} {
				out = append(out, serve.Spec{Routine: routine, Core: core, Strategy: st,
					Multicore: mc, BitStep: bitstep, Faults: faults})
			}
		}
	}
	for c := 0; c < soc.NumCores; c++ {
		add("forwarding", "stuckat", c, 8)
		add("forwarding", "transition", c, 8)
	}
	add("hdcu", "stuckat", 0, 8)
	add("icu", "stuckat", 0, 1)
	return out
}

// specPlacement builds spec and returns its capture's checkpoint
// placement for two arenas (core.CheckpointPlacement).
func specPlacement(t *testing.T, spec serve.Spec) (uniform, acts, planned, kept []int64) {
	t.Helper()
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	uniform, acts, planned, kept, err = core.CheckpointPlacement(c.Campaign, 2)
	if err != nil {
		t.Fatal(err)
	}
	return uniform, acts, planned, kept
}

// TestPlannedPlacementNeverWorse pins the planned placement over the
// forwarding, HDCU and ICU specs: it keeps the uniform checkpoint count,
// its checkpoints are ascending, at cycle 1 or later and each one cycle
// before some site's activation, it never replays more pre-activation
// prefix than the uniform one, and the capture keeps one of the two.
func TestPlannedPlacementNeverWorse(t *testing.T) {
	for _, spec := range placementSpecs() {
		name := specName(spec)
		uniform, acts, planned, kept := specPlacement(t, spec)
		if len(uniform) == 0 {
			t.Fatalf("%s: no uniform checkpoints", name)
		}
		if len(planned) != len(uniform) {
			t.Errorf("%s: %d planned checkpoints, %d uniform", name, len(planned), len(uniform))
		}
		for i, p := range planned {
			if p < 1 || (i > 0 && p <= planned[i-1]) || !slices.Contains(acts, p+1) {
				t.Errorf("%s: planned checkpoints %v are not ascending, >= 1 and before an activation", name, planned)
				break
			}
		}
		if u, p := core.PrefixCycles(acts, uniform), core.PrefixCycles(acts, planned); p > u {
			t.Errorf("%s: planned placement replays %d prefix cycles, uniform %d", name, p, u)
		}
		if !slices.Equal(kept, uniform) && !slices.Equal(kept, planned) {
			t.Errorf("%s: capture keeps %v, neither uniform %v nor planned %v", name, kept, uniform, planned)
		}
	}
}

// TestPlacementGate pins the re-placement gate at two arenas: the capture
// moves its checkpoints only when the prefix replay saved exceeds
// 2 × arenas × the last planned checkpoint, the cost of the second golden
// pass. The ICU multicore TCM spec saves too little to pay for a pass to
// its late activations; the single-core HDCU TCM spec saves far more.
func TestPlacementGate(t *testing.T) {
	for _, tc := range []struct {
		spec    serve.Spec
		replace bool
	}{
		{serve.Spec{Routine: "icu", Strategy: "tcm", Multicore: true, BitStep: 1, Faults: "stuckat"}, false},
		{serve.Spec{Routine: "hdcu", Strategy: "tcm", BitStep: 8, Faults: "stuckat"}, true},
	} {
		name := specName(tc.spec)
		uniform, acts, planned, kept := specPlacement(t, tc.spec)
		saved := core.PrefixCycles(acts, uniform) - core.PrefixCycles(acts, planned)
		cost := 2 * 2 * planned[len(planned)-1]
		t.Logf("%s: saved %d, second pass %d", name, saved, cost)
		if (saved > cost) != tc.replace {
			t.Errorf("%s: saved %d against a second pass of %d, want re-placement %v", name, saved, cost, tc.replace)
		}
		want := uniform
		if tc.replace {
			want = planned
		}
		if !slices.Equal(kept, want) {
			t.Errorf("%s: capture keeps %v, want %v", name, kept, want)
		}
	}
}
