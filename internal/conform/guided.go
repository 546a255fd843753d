package conform

// Coverage-guided fuzzing: the corpus loop that turns conform from a
// random sampler into a feedback fuzzer. Each iteration runs one program
// — freshly generated or mutated from a corpus parent — through the
// scenario's differential check while collecting microarchitectural
// coverage (internal/coverage) from the target system. Programs that
// light coverage bits the corpus has not lit before are kept and mutated
// further; the rest are discarded. The whole loop is deterministic in its
// base seed, so `conform -cover -scenario X -seed N -n M` is a complete
// repro line for anything the loop finds.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/coverage"
	"repro/internal/progen"
	"repro/internal/telemetry"
)

// FuzzOptions tunes a fuzzing loop (guided or random).
type FuzzOptions struct {
	// CorpusDir, when set, is loaded before the loop (every *.json recipe
	// becomes an initial corpus entry) and receives every new interesting
	// program found while fuzzing.
	CorpusDir string

	// Random disables guidance: every iteration generates a fresh seed-swept
	// program and nothing is kept or mutated. Coverage is still collected,
	// which makes Random the baseline the guided mode is measured against.
	Random bool

	// OnPanic is called for every panicked check the loop isolates (the
	// recipe-saving hook); the loop then continues instead of stopping. A
	// genuine divergence still stops the loop. Nil means isolate silently.
	OnPanic func(*Mismatch)

	// Telemetry, when non-nil, receives the loop's live metrics
	// (fuzz_iters_total, fuzz_corpus_size, fuzz_coverage_bits, skip and
	// panic counts). Nil disables them at zero cost.
	Telemetry *telemetry.Registry

	// Progress > 0 prints a progress line (iters, rate, corpus size,
	// coverage bits) to ProgressWriter every interval. The ticker reads
	// only registry atomics, never the scenario's own counters, so it is
	// safe alongside the running loop.
	Progress time.Duration

	// ProgressWriter receives the progress lines; nil means os.Stderr.
	ProgressWriter io.Writer
}

// fuzzMetrics holds the registry handles the fuzz loop updates; the zero
// value (telemetry detached) makes every update a nil-check no-op.
type fuzzMetrics struct {
	enabled bool
	iters   *telemetry.Counter
	panics  *telemetry.Counter
	corpus  *telemetry.Gauge
	bits    *telemetry.Gauge
	skips   *telemetry.Gauge
}

// newFuzzMetrics resolves the fuzz metric names once per loop.
func newFuzzMetrics(reg *telemetry.Registry) fuzzMetrics {
	if reg == nil {
		return fuzzMetrics{}
	}
	return fuzzMetrics{
		enabled: true,
		iters:   reg.Counter("fuzz_iters_total"),
		panics:  reg.Counter("fuzz_panics_total"),
		corpus:  reg.Gauge("fuzz_corpus_size"),
		bits:    reg.Gauge("fuzz_coverage_bits"),
		skips:   reg.Gauge("fuzz_skips"),
	}
}

// freshFrac floors the adaptive fresh fraction: guided runs start fully
// fresh (pure exploration) and decay towards this floor as fresh programs
// stop producing new coverage, shifting the budget to mutation.
const freshFrac = 0.35

// perturbFrac is the fraction of fresh programs generated with
// rng-perturbed distribution knobs instead of the deterministic seed-sweep
// config.
const perturbFrac = 0.5

// frontierWindow is how many of the newest corpus entries the biased
// parent pick draws from: fresh discoveries get mutated while they are
// still the coverage frontier.
const frontierWindow = 8

// pickParent selects a corpus entry to mutate, biased towards the newest
// entries (the frontier) but keeping the whole corpus reachable.
func pickParent(rng *rand.Rand, corpus []*progen.Program) *progen.Program {
	if n := len(corpus); n > frontierWindow && rng.Float64() < 0.5 {
		return corpus[n-frontierWindow+rng.Intn(frontierWindow)]
	}
	return corpus[rng.Intn(len(corpus))]
}

// FuzzResult summarises one fuzzing loop.
type FuzzResult struct {
	Iters     int // programs run
	Corpus    int // corpus entries at exit (0 in random mode)
	NewInDir  int // entries newly saved to CorpusDir
	Skips     int // explicit skip verdicts (see Scenario.Skips)
	FullSkips int // iterations that compared nothing (see Scenario.FullSkips)
	Panics    int // panicked checks isolated (loop continued past them)
	Bits      coverage.Bits
	Mismatch  *Mismatch // non-nil when the loop stopped on a divergence
	// FirstPanic keeps the first isolated panic for reporting; the loop does
	// not stop on it, so Mismatch stays nil unless a real divergence hits.
	FirstPanic *Mismatch
}

// Summary renders the coverage reached, total and by feature group, plus
// any explicit skip verdicts the scenario recorded.
func (r *FuzzResult) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d runs, corpus %d, coverage %d bits (", r.Iters, r.Corpus, r.Bits.Count())
	for i, g := range r.Bits.ByGroup() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %d/%d", g.Name, g.Set, g.Total)
	}
	sb.WriteString(")")
	if r.Skips > 0 {
		fmt.Fprintf(&sb, ", %d skip verdicts", r.Skips)
	}
	if r.Panics > 0 {
		fmt.Fprintf(&sb, ", %d panicked checks isolated", r.Panics)
	}
	return sb.String()
}

// Fuzz runs the corpus loop on a program scenario for up to iters
// iterations (and, when deadline is non-zero, no longer than the
// deadline), starting the fresh-program seed sweep at seed. It stops early
// on the first mismatch, which carries the failing (possibly mutated)
// program and minimizes like any other. Panics on a non-Guidable scenario.
func (s *Scenario) Fuzz(seed int64, iters int, deadline time.Time, opts FuzzOptions) (*FuzzResult, error) {
	if !s.Guidable() {
		panic("conform: Fuzz on a non-program scenario")
	}
	// The mutation stream is seeded from the base seed, so a guided run is
	// fully reproducible from its command line.
	rng := rand.New(rand.NewSource(seed ^ 0x636f7665726167)) // "coverag"
	res := &FuzzResult{}
	reg := opts.Telemetry
	if reg == nil && opts.Progress > 0 {
		// The progress line reads registry atomics; give it a private
		// registry when the caller did not attach one.
		reg = telemetry.NewRegistry()
	}
	met := newFuzzMetrics(reg)
	if opts.Progress > 0 {
		w := opts.ProgressWriter
		if w == nil {
			w = os.Stderr
		}
		start := time.Now()
		tk := telemetry.StartTicker(opts.Progress, func() {
			it := met.iters.Value()
			fmt.Fprintf(w, "fuzz: %d iters, %.1f iters/s, corpus %d, coverage %d bits, %d skips, %d panics\n",
				it, float64(it)/time.Since(start).Seconds(),
				met.corpus.Value(), met.bits.Value(), met.skips.Value(), met.panics.Value())
		})
		defer tk.Stop()
	}
	// Scenario.Skips is a lifetime counter; report this loop's delta, on
	// every exit path (including an early mismatch stop).
	skipsBase, fullBase := s.Skips(), s.FullSkips()
	defer func() {
		res.Skips = s.Skips() - skipsBase
		res.FullSkips = s.FullSkips() - fullBase
	}()
	// isolate absorbs a panicked check: count it, hand it to the OnPanic
	// hook, and let the loop continue. Only real divergences stop the loop.
	isolate := func(m *Mismatch) bool {
		if !m.Panicked {
			return false
		}
		res.Panics++
		met.panics.Inc()
		if res.FirstPanic == nil {
			res.FirstPanic = m
		}
		if opts.OnPanic != nil {
			opts.OnPanic(m)
		}
		return true
	}
	var corpus []*progen.Program

	if opts.CorpusDir != "" {
		loaded, err := LoadCorpus(opts.CorpusDir)
		if err != nil {
			return nil, err
		}
		cov := new(coverage.Map)
		for _, p := range loaded {
			cov.Reset()
			if m := s.CheckProgram(p, cov); m != nil {
				if !isolate(m) {
					res.Mismatch = m
					return res, nil
				}
				continue
			}
			bits := cov.Bits()
			if res.Bits.Or(&bits) && !opts.Random {
				corpus = append(corpus, p)
			}
		}
	}

	cov := new(coverage.Map)
	nextSeed := seed
	// freshP is the adaptive exploration rate: start fully fresh so guided
	// mode never trails the random sweep's early diversity, decay towards
	// the floor as fresh seeds stop lighting new bits, and recover when
	// they pay again.
	freshP := 1.0
	for i := 0; i < iters; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		var p *progen.Program
		fresh := opts.Random || len(corpus) == 0 || rng.Float64() < freshP
		if fresh {
			sd := nextSeed
			nextSeed++
			cfg := s.spec.cfgFor(sd)
			if !opts.Random && rng.Float64() < perturbFrac {
				cfg = progen.PerturbKnobs(rng, cfg)
			}
			p = progen.Generate(sd, cfg)
		} else {
			p = progen.Mutate(rng, pickParent(rng, corpus))
		}
		cov.Reset()
		res.Iters++
		met.iters.Inc()
		m := s.CheckProgram(p, cov)
		if met.enabled {
			// Mirror the scenario's (non-atomic) lifetime skip counter into
			// the registry so the progress ticker never reads loop state.
			met.skips.Set(int64(s.Skips() - skipsBase))
		}
		if m != nil {
			if !isolate(m) {
				res.Mismatch = m
				return res, nil
			}
			continue
		}
		bits := cov.Bits()
		gained := res.Bits.Or(&bits)
		if gained && met.enabled {
			met.bits.Set(int64(res.Bits.Count()))
		}
		if fresh && !opts.Random {
			if gained {
				freshP = 1.0
			} else if freshP *= 0.85; freshP < freshFrac {
				freshP = freshFrac
			}
		}
		if gained && !opts.Random {
			corpus = append(corpus, p)
			met.corpus.Set(int64(len(corpus)))
			if opts.CorpusDir != "" {
				if err := SaveRecipe(opts.CorpusDir, p.Recipe); err != nil {
					return nil, err
				}
				res.NewInDir++
			}
		}
	}
	res.Corpus = len(corpus)
	return res, nil
}

// LoadCorpus reads every *.json recipe under dir (sorted by name, so runs
// are deterministic) and rebuilds the programs. A missing directory is an
// empty corpus; a file that fails to parse or rebuild is an error — a
// corrupt corpus should fail loudly, not silently shrink.
func LoadCorpus(dir string) ([]*progen.Program, error) {
	names, err := corpusNames(dir)
	if err != nil {
		return nil, err
	}
	out := make([]*progen.Program, 0, len(names))
	for _, name := range names {
		p, err := loadRecipeFile(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// corpusNames lists a corpus directory's recipe files in deterministic
// order.
func corpusNames(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// loadRecipeFile rebuilds the program one recipe file describes.
func loadRecipeFile(name string) (*progen.Program, error) {
	blob, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("conform: corpus %s: %w", name, err)
	}
	var r progen.Recipe
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("conform: corpus %s: %w", name, err)
	}
	p, err := progen.FromRecipe(r)
	if err != nil {
		return nil, fmt.Errorf("conform: corpus %s: %w", name, err)
	}
	return p, nil
}

// MinimizeResult summarises a corpus minimization pass.
type MinimizeResult struct {
	Kept    int
	Dropped int
	// Bits is the corpus's coverage union — identical before and after the
	// pass, by construction.
	Bits coverage.Bits
	// Mismatch is non-nil when a corpus entry diverged during evaluation;
	// nothing is removed in that case (a failing entry is a repro, not
	// redundancy).
	Mismatch *Mismatch
}

// MinimizeCorpus is the corpus lifecycle pass: it replays every recipe
// under dir through the scenario, collects each entry's coverage bits,
// and deletes the files whose bits are fully subsumed by the union of the
// entries kept before them (greedy, richest-entry-first — the classic
// corpus-distillation order). The surviving set reaches exactly the same
// coverage union as the full directory. Panics on a non-Guidable
// scenario.
func (s *Scenario) MinimizeCorpus(dir string) (*MinimizeResult, error) {
	if !s.Guidable() {
		panic("conform: MinimizeCorpus on a non-program scenario")
	}
	names, err := corpusNames(dir)
	if err != nil {
		return nil, err
	}
	type entry struct {
		name  string
		bits  coverage.Bits
		count int
	}
	entries := make([]entry, 0, len(names))
	cov := new(coverage.Map)
	res := &MinimizeResult{}
	for _, name := range names {
		p, err := loadRecipeFile(name)
		if err != nil {
			return nil, err
		}
		cov.Reset()
		if m := s.CheckProgram(p, cov); m != nil {
			res.Mismatch = m
			return res, nil
		}
		bits := cov.Bits()
		entries = append(entries, entry{name: name, bits: bits, count: bits.Count()})
	}
	// Richest first; ties keep name order so the pass is deterministic.
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].count > entries[j].count })
	for _, e := range entries {
		if e.count == 0 {
			// Zero coverage means the scenario did not actually exercise
			// the entry (e.g. the arena scenario skips handler-carrying
			// programs a cross-scenario corpus handed it). Out of scope is
			// not redundant: keep the file for the scenario that owns it.
			res.Kept++
			continue
		}
		if res.Bits.Or(&e.bits) {
			res.Kept++
			continue
		}
		if err := os.Remove(e.name); err != nil {
			return nil, err
		}
		res.Dropped++
	}
	return res, nil
}

// SaveRecipe writes one recipe into dir under a content-derived name
// (creating dir if needed), so re-finding the same program is idempotent.
func SaveRecipe(dir string, r progen.Recipe) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	h := fnv.New64a()
	h.Write(blob)
	name := filepath.Join(dir, fmt.Sprintf("%016x.json", h.Sum64()))
	return os.WriteFile(name, append(blob, '\n'), 0o644)
}
