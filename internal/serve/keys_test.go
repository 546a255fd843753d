package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/fault"
	"repro/internal/soc"
)

// benchKeysFile pins the content address of every benchmark spec.
const benchKeysFile = "testdata/bench_keys.json"

// pinnedKey is one spec's content address as benchKeysFile records it.
type pinnedKey struct {
	Spec   Spec                `json:"spec"`
	Header fault.JournalHeader `json:"header"`
	Key    string              `json:"key"`
}

// benchSpecs returns the distinct specs of cmd/bench's four workloads in
// first-appearance order. cmd/bench is its own module, so its grids
// (workloads in cmd/bench/workload.go) are written out again here: every
// routine, core, strategy and multicore setting at bitstep 8 (ICU at 1),
// plus core 0 alone under each strategy at bitstep 1, in both forwarding
// fault models.
func benchSpecs() []Spec {
	strategies := []string{"plain", "cache", "tcm"}
	grid := func(routine, faults string, multicore []bool, bitstep int) []Spec {
		var out []Spec
		for c := 0; c < soc.NumCores; c++ {
			for _, st := range strategies {
				for _, mc := range multicore {
					out = append(out, Spec{Routine: routine, Core: c, Strategy: st, Multicore: mc, BitStep: bitstep, Faults: faults})
				}
			}
		}
		return out
	}
	bitstep1 := func(routine, faults string) []Spec {
		var out []Spec
		for _, st := range strategies {
			out = append(out, Spec{Routine: routine, Strategy: st, BitStep: 1, Faults: faults})
		}
		return out
	}
	both, mc := []bool{false, true}, []bool{true}
	var all []Spec
	for _, faults := range []string{"stuckat", "transition"} {
		all = append(all, grid("forwarding", faults, both, 8)...)
		all = append(all, bitstep1("forwarding", faults)...)
	}
	all = append(all, grid("hdcu", "stuckat", both, 8)...)
	all = append(all, bitstep1("hdcu", "stuckat")...)
	all = append(all, grid("icu", "stuckat", both, 1)...)
	all = append(all, grid("forwarding", "stuckat", mc, 8)...)
	all = append(all, grid("forwarding", "transition", mc, 8)...)
	all = append(all, bitstep1("forwarding", "transition")...)
	all = append(all, grid("hdcu", "stuckat", mc, 8)...)
	all = append(all, grid("icu", "stuckat", mc, 1)...)
	seen := map[Spec]bool{}
	var out []Spec
	for _, s := range all {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// TestBenchSpecKeysPinned rebuilds every benchmark spec and requires the
// journal header and content key benchKeysFile pins for it, so a change
// to campaign construction — the flash, the golden recording, the
// fingerprint's encoding — cannot move a key that journals and service
// stores are filed under.
func TestBenchSpecKeysPinned(t *testing.T) {
	specs := benchSpecs()
	if len(specs) != 81 {
		t.Fatalf("%d distinct benchmark specs, want 81", len(specs))
	}
	got := make([]pinnedKey, len(specs))
	for i, spec := range specs {
		c, err := spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		got[i] = pinnedKey{Spec: spec, Header: c.Header, Key: c.Header.Key()}
	}
	blob, err := os.ReadFile(benchKeysFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []pinnedKey
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d specs, the benchmark has %d", benchKeysFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%+v:\n built  %+v key %s\n pinned %+v key %s",
				got[i].Spec, got[i].Header, got[i].Key, want[i].Header, want[i].Key)
		}
	}
}

// benchReferenceFile is cmd/bench's table of reference-mode report
// digests by spec key, which the benchmark checks every report against.
// The tests here only read it.
const benchReferenceFile = "../../cmd/bench/reference.json"

// benchSpecKey names spec the way benchReferenceFile does.
func benchSpecKey(s Spec) string {
	mc := "sc"
	if s.Multicore {
		mc = "mc"
	}
	return fmt.Sprintf("%s/c%d/%s/%s/bs%d/%s", s.Routine, s.Core, s.Strategy, mc, s.BitStep, s.Faults)
}

// TestBenchReportDigestsPinned runs a fast slice of the benchmark specs in
// the optimized engine and requires each report's SHA-256 to be the
// reference-mode digest benchReferenceFile holds for it. cmd/bench is its
// own module, so `go test ./...` checks no other report digest. The slice
// is every core-0, bitstep-8, single-core forwarding spec under both fault
// models, the HDCU under the cache strategy and the ICU under the TCM
// strategy.
func TestBenchReportDigestsPinned(t *testing.T) {
	blob, err := os.ReadFile(benchReferenceFile)
	if err != nil {
		t.Fatal(err)
	}
	var refs map[string]string
	if err := json.Unmarshal(blob, &refs); err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, faults := range []string{"stuckat", "transition"} {
		for _, st := range []string{"plain", "cache", "tcm"} {
			specs = append(specs, Spec{Routine: "forwarding", Strategy: st, BitStep: 8, Faults: faults})
		}
	}
	specs = append(specs,
		Spec{Routine: "hdcu", Strategy: "cache", BitStep: 8, Faults: "stuckat"},
		Spec{Routine: "icu", Strategy: "tcm", BitStep: 1, Faults: "stuckat"})
	for _, spec := range specs {
		key := benchSpecKey(spec)
		want, ok := refs[key]
		if !ok {
			t.Errorf("%s: %s has no digest", key, benchReferenceFile)
			continue
		}
		sum := sha256.Sum256(directReport(t, spec))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: report digest %s, reference mode's %s", key, got, want)
		}
	}
}
