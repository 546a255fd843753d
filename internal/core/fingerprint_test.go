package core

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bus"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/icu"
	"repro/internal/sbst"
	"repro/internal/soc"
)

// encoded runs enc on a small buffered writer, so that encoded items
// straddle its flushes, and returns the bytes it wrote.
func encoded(enc func(w *bufio.Writer)) string {
	var out bytes.Buffer
	w := bufio.NewWriterSize(&out, 16)
	enc(w)
	w.Flush()
	return out.String()
}

func randWords(rng *rand.Rand, n int) []uint32 {
	ws := make([]uint32, n)
	for i := range ws {
		ws[i] = rng.Uint32() >> rng.IntN(32)
	}
	return ws
}

// randInt returns a value of any magnitude and sign, small ones included.
func randInt(rng *rand.Rand) int64 {
	v := rng.Int64() >> rng.IntN(64)
	if rng.IntN(2) == 0 {
		v = -v
	}
	return v
}

// randConfig returns a configuration with every field drawn at random,
// planes cleared as CampaignFingerprint clears them, and replay traces of
// reads and writes at cycles past 2^32 and addresses with the top bit set.
func randConfig(rng *rand.Rand) soc.Config {
	cfg := soc.Config{
		Arbitration: bus.Arbitration(rng.UintN(256)),
		SRAMLatency: int(randInt(rng)),
	}
	if rng.IntN(3) > 0 {
		cfg.FlashBanks = make([]int, rng.IntN(6))
		for i := range cfg.FlashBanks {
			cfg.FlashBanks[i] = int(randInt(rng))
		}
	}
	for i := range cfg.Cores {
		cfg.Cores[i] = soc.CoreSetup{
			CPU: cpu.Config{
				CoreID: int(randInt(rng)),
				Has64:  rng.IntN(2) == 0,
				ICU:    icu.Config{SharedCauseBits: rng.IntN(2) == 0},
			},
			Active:     rng.IntN(2) == 0,
			CachesOn:   rng.IntN(2) == 0,
			WriteAlloc: rng.IntN(2) == 0,
			StartDelay: int(randInt(rng)),
		}
	}
	if rng.IntN(4) > 0 {
		cfg.Replay = make([][]bus.TrafficEvent, rng.IntN(5))
		for i := range cfg.Replay {
			if rng.IntN(4) == 0 {
				continue // a nil trace prints like an empty one
			}
			cfg.Replay[i] = make([]bus.TrafficEvent, rng.IntN(300))
			for j := range cfg.Replay[i] {
				e := bus.TrafficEvent{
					Cycle:  randInt(rng),
					Addr:   rng.Uint32(),
					Master: uint8(rng.UintN(256)),
					Write:  rng.IntN(2) == 0,
					N:      uint8(rng.UintN(256)),
				}
				switch rng.IntN(3) {
				case 0:
					e.Cycle = 1<<32 + rng.Int64N(1<<40)
				case 1:
					e.Addr |= 1 << 31
				}
				cfg.Replay[i][j] = e
			}
		}
	}
	return cfg
}

func randSites(rng *rand.Rand, n int) []fault.Site {
	sites := make([]fault.Site, n)
	for i := range sites {
		u := func() uint8 { return uint8(rng.UintN(256)) }
		sites[i] = fault.Site{Unit: fault.Unit(u()), Signal: fault.Signal(u()), Kind: fault.Kind(u()),
			Lane: u(), Operand: u(), Path: u(), Bit: u(), Stuck: u()}
	}
	return sites
}

// TestKeyEncodersMatchFmt is the property that keeps every content key
// valid: on random programs, data tables, configurations with replay
// traffic, and fault universes, the key encoders write byte for byte
// what their fmt forms print, and HashSites hashes what its fmt form
// prints.
func TestKeyEncodersMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	for trial := range 200 {
		p := &asm.Program{Base: rng.Uint32(), Words: randWords(rng, rng.IntN(3000))}
		var fm strings.Builder
		fmt.Fprintf(&fm, "base %08x:", p.Base)
		for _, w := range p.Words {
			fmt.Fprintf(&fm, "%08x", w)
		}
		if got, want := encoded(func(w *bufio.Writer) { writeProgram(w, p) }), fm.String(); got != want {
			t.Fatalf("trial %d: program encodes\n%q\nfmt printed\n%q", trial, got, want)
		}

		r := &sbst.Routine{DataBase: rng.Uint32(), DataWords: randWords(rng, rng.IntN(200))}
		fm.Reset()
		fmt.Fprintf(&fm, "|data %08x:", r.DataBase)
		for _, w := range r.DataWords {
			fmt.Fprintf(&fm, "%08x", w)
		}
		if got, want := encoded(func(w *bufio.Writer) { writeData(w, r) }), fm.String(); got != want {
			t.Fatalf("trial %d: data encodes\n%q\nfmt printed\n%q", trial, got, want)
		}

		id, budget, cfg := int(randInt(rng)), randInt(rng), randConfig(rng)
		want := fmt.Sprintf("core %d budget %d cfg %+v", id, budget, cfg)
		if got := encoded(func(w *bufio.Writer) { writeEnv(w, id, budget, cfg) }); got != want {
			t.Fatalf("trial %d: environment encodes\n%q\nfmt printed\n%q", trial, got, want)
		}

		sites := randSites(rng, rng.IntN(2000))
		h := fnv.New64a()
		for _, s := range sites {
			fmt.Fprintf(h, "%d.%d.%d.%d.%d.%d.%d.%d;",
				s.Unit, s.Signal, s.Kind, s.Lane, s.Operand, s.Path, s.Bit, s.Stuck)
		}
		if got, want := fault.HashSites(sites), fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Fatalf("trial %d: HashSites of %d sites = %s, fmt form %s", trial, len(sites), got, want)
		}
	}
}

// TestKeyEncodedTypes fails when a type the content key encodes gains,
// loses, renames or retypes a field: the encoders write fields by name,
// so a new one would otherwise drop out of every key. Update writeEnv or
// fault.HashSites, then this list.
func TestKeyEncodedTypes(t *testing.T) {
	for _, tc := range []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeFor[bus.TrafficEvent](), []string{"Cycle int64", "Addr uint32", "Master uint8", "Write bool", "N uint8"}},
		{reflect.TypeFor[fault.Site](), []string{"Unit fault.Unit", "Signal fault.Signal", "Kind fault.Kind",
			"Lane uint8", "Operand uint8", "Path uint8", "Bit uint8", "Stuck uint8"}},
		{reflect.TypeFor[soc.Config](), []string{"Arbitration bus.Arbitration", "FlashBanks []int", "SRAMLatency int",
			"Cores [3]soc.CoreSetup", "Replay [][]bus.TrafficEvent"}},
		{reflect.TypeFor[soc.CoreSetup](), []string{"CPU cpu.Config", "Active bool", "CachesOn bool",
			"WriteAlloc bool", "Plane fault.Plane", "StartDelay int"}},
		{reflect.TypeFor[cpu.Config](), []string{"CoreID int", "Has64 bool", "ICU icu.Config"}},
		{reflect.TypeFor[icu.Config](), []string{"SharedCauseBits bool"}},
	} {
		var got []string
		for i := range tc.typ.NumField() {
			f := tc.typ.Field(i)
			got = append(got, f.Name+" "+f.Type.String())
		}
		if !slices.Equal(got, tc.fields) {
			t.Errorf("%v has fields %q; the content key encodes %q", tc.typ, got, tc.fields)
		}
	}
	for _, k := range []reflect.Type{reflect.TypeFor[fault.Unit](), reflect.TypeFor[fault.Signal](),
		reflect.TypeFor[fault.Kind](), reflect.TypeFor[bus.Arbitration]()} {
		if k.Kind() != reflect.Uint8 {
			t.Errorf("%v is a %v; the content key encodes a uint8", k, k.Kind())
		}
	}
}
