// Command faultsim runs a standalone stuck-at fault campaign: it grades one
// of the library's self-test routines against its module's fault universe
// on a chosen core, under a chosen execution strategy and SoC environment,
// and prints the coverage with a per-signal breakdown and the surviving
// fault list.
//
// Usage:
//
//	faultsim [-routine forwarding|hdcu|icu] [-core 0|1|2]
//	         [-strategy plain|cache|tcm] [-multicore] [-bitstep N]
//	         [-engine arena|reference] [-workers N] [-v]
//
// Both modes keep one long-lived SoC per worker (program loaded once, each
// fault run is reset + plane-swap). The default "arena" mode terminates
// runs early once they observably diverge from the golden trace and stop
// making progress, and starts stuck-at and transition runs from golden
// checkpoints (or serves the golden verdict when the fault never activates);
// "reference" simulates every run to the full watchdog budget
// with no shortcuts — the semantics the optimized mode is differentially
// pinned against. Both modes produce identical reports.
package main
