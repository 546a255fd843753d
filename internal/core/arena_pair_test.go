package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/serve"
)

// BenchmarkArenaPair reports the per-cycle cost of two arenas stepped at
// once, each on its own goroutine, next to one arena alone. The pair is
// built as a reference-mode Campaign.Run call builds its arenas: one
// golden capture, whose SoC the first arena keeps, then one clone from the
// capture's image, so their objects lie in the heap as a campaign's do.
// The pair's ns/cycle is wall time over one arena's cycles: on a host with
// two free CPUs it equals the alone figure unless the two arenas slow each
// other down, as they do when their per-cycle state shares cache lines.
func BenchmarkArenaPair(b *testing.B) {
	for _, strategy := range []string{"plain", "cache", "tcm"} {
		c, err := serve.Spec{Routine: "hdcu", Strategy: strategy, BitStep: 8}.Build()
		if err != nil {
			b.Fatal(err)
		}
		arenas, err := core.ReferenceArenas(c.Campaign, 2)
		if err != nil {
			b.Fatal(err)
		}
		run := func(a *core.Arena, n int) (cycles int64) {
			for range n {
				a.Run(fault.None)
				cycles += a.SoC().Cycle()
			}
			return cycles
		}
		b.Run(strategy+"/alone", func(b *testing.B) {
			cycles := run(arenas[0], b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
		})
		b.Run(strategy+"/pair", func(b *testing.B) {
			var cycles [2]int64
			var wg sync.WaitGroup
			for k, a := range arenas {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cycles[k] = run(a, b.N)
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles[0]), "ns/cycle")
		})
	}
}
