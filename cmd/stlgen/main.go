package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/soc"
)

func main() {
	routineName := flag.String("routine", "hdcu", "routine to generate")
	strategyName := flag.String("strategy", "cache", "plain, cache or tcm")
	coreID := flag.Int("core", 0, "core the program targets")
	base := flag.Uint("base", soc.CodeLow, "link address")
	flag.Parse()

	r, err := sbst.NewRoutineByName(*routineName, sbst.RoutineOptions{
		DataBase: mem.SRAMBase + 0x2000*uint32(*coreID+1),
		CoreID:   *coreID,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stlgen:", err)
		os.Exit(2)
	}

	strat, err := core.StrategyByName(*strategyName, *coreID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stlgen:", err)
		os.Exit(2)
	}

	b := asm.NewBuilder()
	if err := strat.Emit(b, r); err != nil {
		fmt.Fprintln(os.Stderr, "stlgen:", err)
		os.Exit(1)
	}
	b.Halt()
	prog, err := b.Assemble(uint32(*base))
	if err != nil {
		fmt.Fprintln(os.Stderr, "stlgen:", err)
		os.Exit(1)
	}

	plainSize, _ := r.SizeBytes()
	overhead, _ := strat.MemoryOverhead(r)
	fmt.Printf("; routine %s  strategy %s  core %c\n", r.Name, strat.Name(), rune('A'+*coreID))
	fmt.Printf("; single-core body %d bytes, emitted program %d bytes, data %d bytes, reserved memory %d bytes\n",
		plainSize, prog.Size(), r.DataSize(), overhead)
	fmt.Printf("; blocks: %d, perf counters: %v, interrupts: %v, splittable: %v\n\n",
		len(r.Blocks), r.UsesPerfCounters, r.UsesInterrupts, !r.NoSplit)
	fmt.Print(prog.Listing())
}
