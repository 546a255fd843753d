package experiments

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sbst"
	"repro/internal/soc"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 1: the forwarding path exercised by back-to-back issue (a) and
// broken by multi-core fetch delays (b), as pipeline diagrams.

// Figure1Result carries both diagrams.
type Figure1Result struct {
	DiagramA       string // forwarding exercised
	DiagramB       string // forwarding broken
	ForwardingUsed bool   // in scenario (a)
	ForwardingLost bool   // in scenario (b)
}

// figure1Routine is the paper's two-instruction fragment, placed so that
// producer and consumer share one flash line (aligned) or straddle a line
// boundary (pad), preceded by filler so the pair is mid-stream.
func figure1Routine(straddle bool) *sbst.Routine {
	r := &sbst.Routine{Name: "fig1", Target: "forwarding", DataBase: dataBaseFor(0),
		DataWords: []uint32{0x5A5A5A5A}}
	r.Blocks = []sbst.Block{{Name: "pair", Emit: func(b *asm.Builder) {
		b.Load(isa.OpLW, 5, isa.RegBase, 0)
		b.Nop()
		b.Nop()
		b.Nop()
		b.Align(16)
		b.Nop()
		b.Nop()
		if straddle {
			// Push the producer to the last word of the line so the
			// consumer sits behind a fetch boundary.
			b.Nop()
		}
		b.Label("fig1_pair")
		b.R(isa.OpOR, 1, 5, isa.RegZero) // producer (the paper's first add)
		b.R(isa.OpADD, 2, 1, 1)          // consumer: EX-to-EX dependent
		b.Label("fig1_end")
		b.Misr(2)
	}}}
	return r
}

// Figure1 reproduces both halves of the figure.
func Figure1(o Options) (*Figure1Result, error) {
	run := func(active int, straddle bool) (*trace.Recorder, error) {
		job := &core.CoreJob{
			Routine:  figure1Routine(straddle),
			Strategy: core.Plain{},
			CodeBase: soc.CodeLow,
		}
		var jobs [soc.NumCores]*core.CoreJob
		jobs[0] = job
		cfg := baseConfig(active, false)
		for id := 1; id < active; id++ {
			jobs[id] = &core.CoreJob{
				Routines: sbst.StandardSTL(dataBaseFor(id)),
				Strategy: core.Plain{},
				CodeBase: positions()[id] + uint32(id)*0x4000,
			}
			// Keep contending cores running past core 0's finish.
			cfg.Cores[id].StartDelay = 0
		}
		// Resolve the instrumented PC window from a dry assembly.
		b := asm.NewBuilder()
		if err := job.Strategy.Emit(b, job.Routine); err != nil {
			return nil, err
		}
		prog, err := b.Assemble(job.CodeBase)
		if err != nil {
			return nil, err
		}
		lo, err := prog.Addr("fig1_pair")
		if err != nil {
			return nil, err
		}
		hi, err := prog.Addr("fig1_end")
		if err != nil {
			return nil, err
		}
		rec := trace.NewRecorder(lo, hi)
		results, _, err := core.RunJobsSetup(cfg, jobs, maxRunCycles, func(s *soc.SoC) {
			s.Cores[0].Core.SetTracer(rec.Fn())
		})
		if err != nil {
			return nil, err
		}
		if results[0] == nil || results[0].Wedged {
			return nil, fmt.Errorf("figure 1 run failed")
		}
		return rec, nil
	}

	// (a) single core: the aligned pair is fetched in one flash line and
	// dual-issues; the consumer takes a forwarding path.
	recA, err := run(1, false)
	if err != nil {
		return nil, err
	}
	// (b) three cores with the pair straddling a fetch-line boundary:
	// contention delays the second line far beyond the pipeline depth and
	// the consumer reads the register file instead of the bypass.
	recB, err := run(3, true)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{
		DiagramA: recA.Render(),
		DiagramB: recB.Render(),
	}
	// Find the consumer PC in each recording via forwarding use.
	res.ForwardingUsed = anyForwarding(recA)
	res.ForwardingLost = !anyForwarding(recB)
	return res, nil
}

func anyForwarding(rec *trace.Recorder) bool {
	for pc := rec.Lo; pc < rec.Hi; pc += 4 {
		if rec.ForwardingUsed(pc) {
			return true
		}
	}
	return false
}

// RenderFigure1 formats the result.
func RenderFigure1(r *Figure1Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 1(a): single-core execution, forwarding path exercised\n")
	sb.WriteString(r.DiagramA)
	fmt.Fprintf(&sb, "forwarding exercised: %v\n\n", r.ForwardingUsed)
	sb.WriteString("Figure 1(b): triple-core execution, dependent pair split by fetch stalls\n")
	sb.WriteString(r.DiagramB)
	fmt.Fprintf(&sb, "forwarding broken: %v\n", r.ForwardingLost)
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 2: structure of the single-core routine versus the cache-based
// multi-core version.

// Figure2Result quantifies the transformation.
type Figure2Result struct {
	Routine         string
	SingleCoreBytes int
	WrappedBytes    int
	OverheadBytes   int
	Chunks          int
	Iterations      int
	FitsICache      bool
}

// Figure2 reports the structural comparison for the ICU routine (any
// routine would do; the paper's figure is schematic).
func Figure2(o Options) (*Figure2Result, error) {
	r := sbst.NewICUTest(sbst.ICUOptions{DataBase: dataBaseFor(0)})
	plainSize, err := programSize(core.Plain{}, r)
	if err != nil {
		return nil, err
	}
	strat := core.CacheBased{WriteAllocate: true}
	wrapped, err := programSize(strat, r)
	if err != nil {
		return nil, err
	}
	return &Figure2Result{
		Routine:         r.Name,
		SingleCoreBytes: plainSize,
		WrappedBytes:    wrapped,
		OverheadBytes:   wrapped - plainSize,
		Chunks:          1,
		Iterations:      2,
		FitsICache:      wrapped <= 8<<10,
	}, nil
}

func programSize(s core.Strategy, r *sbst.Routine) (int, error) {
	b := asm.NewBuilder()
	if err := s.Emit(b, r); err != nil {
		return 0, err
	}
	p, err := b.Assemble(0x1000)
	if err != nil {
		return 0, err
	}
	return p.Size(), nil
}

// RenderFigure2 formats the result.
func RenderFigure2(r *Figure2Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 2: single-core routine vs cache-based multi-core structure\n")
	fmt.Fprintf(&sb, "routine %q:\n", r.Routine)
	fmt.Fprintf(&sb, "  (a) single-core version:        %5d bytes  [init | test program body]\n", r.SingleCoreBytes)
	fmt.Fprintf(&sb, "  (b) cache-based version:        %5d bytes  [init | invalidate | loading loop + execution loop]\n", r.WrappedBytes)
	fmt.Fprintf(&sb, "  wrapper overhead:               %5d bytes (%d chunk(s), %d loop iterations)\n",
		r.OverheadBytes, r.Chunks, r.Iterations)
	fmt.Fprintf(&sb, "  fits the 8 kB instruction cache: %v\n", r.FitsICache)
	fmt.Fprintf(&sb, "  memory footprint of the routine is unchanged: the loop re-executes the same image\n")
	return sb.String()
}
