// Fault-injection walkthrough: inject a single stuck-at fault into the
// forwarding network, watch the self-test signature expose it under the
// cache-based strategy, then run a small campaign and break detection down
// per signal class.
package main

import (
	"fmt"
	"log"
	"slices"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/soc"
)

func runOnce(plane fault.Plane) (uint32, bool) {
	cfg := soc.DefaultConfig()
	for id := 0; id < soc.NumCores; id++ {
		cfg.Cores[id].Active = id == 0
		cfg.Cores[id].CachesOn = true
		cfg.Cores[id].WriteAlloc = true
	}
	cfg.Cores[0].Plane = plane
	routine, err := sbst.NewRoutineByName("forwarding", sbst.RoutineOptions{DataBase: mem.SRAMBase + 0x2000})
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := core.RunSingle(cfg, 0, &core.CoreJob{
		Routine:  routine,
		Strategy: core.CacheBased{WriteAllocate: true},
		CodeBase: soc.CodeLow,
	}, 3_000_000)
	if err != nil {
		log.Fatal(err)
	}
	return res.Signature, res.OK
}

func main() {
	golden, ok := runOnce(nil)
	if !ok {
		log.Fatal("golden run failed")
	}
	fmt.Printf("golden signature: %08x\n\n", golden)

	// One fault, end to end: a stuck-at-1 data line on the EX-to-EX bypass
	// feeding lane 0's first operand, bit 13.
	site := fault.Site{
		Unit: fault.UnitFwd, Signal: fault.SigMuxData,
		Lane: 0, Operand: 0, Path: fault.PathEXL0, Bit: 13, Stuck: 1,
	}
	sig, _ := runOnce(fault.NewSingle(site))
	fmt.Printf("with %v:\n", site)
	fmt.Printf("  signature %08x -> %s\n\n", sig, verdict(sig != golden))

	// A small campaign over the forwarding universe (every 4th data bit to
	// keep this demo fast).
	sites := fault.ForwardingLogic(fault.ListOptions{DataBits: 32, BitStep: 4})
	fault.SortSites(sites)
	rep, err := fault.Simulate(sites, slices.Repeat([]fault.RunFunc{runOnce}, fault.Workers(0, len(sites))), fault.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("campaign:", rep.String())
	fmt.Println("per-signal breakdown:")
	for _, st := range rep.BySignal() {
		fmt.Printf("  %-8v %3d/%3d (%.1f%%)\n", st.Signal, st.Detected, st.Total,
			100*float64(st.Detected)/float64(st.Total))
	}
	if und := rep.Undetected(); len(und) > 0 {
		fmt.Printf("first undetected survivors (%d total):\n", len(und))
		for i, s := range und {
			if i == 5 {
				break
			}
			fmt.Println("  ", s)
		}
	}
}

func verdict(detected bool) string {
	if detected {
		return "DETECTED (signature mismatch: the part is rejected)"
	}
	return "not detected"
}
