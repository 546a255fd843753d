package fault

// Transition (delay) fault extension — the paper's future-work note:
// "[the problem] might be further emphasized with delay faults which
// require test patterns applied in a timed sequence." A slow-to-rise or
// slow-to-fall defect on a forwarding data line only misbehaves when the
// line toggles on consecutive uses; detecting it requires the test to
// drive a timed two-pattern sequence through the same path — which is
// impossible to guarantee when bus contention reshuffles issue packets,
// and exactly what the cache-based strategy restores.
//
// Model: the faulty line's previous value is remembered per use of its
// path; when the new value requires the slow edge, the line delivers the
// stale bit for that use and recovers afterwards.

// Kind distinguishes the fault models.
type Kind uint8

const (
	KindStuckAt  Kind = iota // classic stuck-at (the paper's evaluation)
	KindSlowRise             // transition fault: 0->1 edge delayed one use
	KindSlowFall             // transition fault: 1->0 edge delayed one use
)

func (k Kind) String() string {
	switch k {
	case KindStuckAt:
		return "SA"
	case KindSlowRise:
		return "STR"
	case KindSlowFall:
		return "STF"
	}
	return "?"
}

// Transition is an injection plane for one transition fault on a
// forwarding-mux data line. It is stateful (remembers the line's previous
// value) but fully deterministic; like all planes it must only be used by
// one core.
type Transition struct {
	noFault      // every hook but MuxData is identity
	S       Site // Site.Kind selects slow-rise or slow-fall; Stuck is unused

	prev     uint64
	prevSeen bool
}

// NewTransition returns a plane injecting the transition fault s.
func NewTransition(s Site) *Transition { return &Transition{S: s} }

// ResetState clears the plane's edge history, as if it had never observed
// the line. A Transition that already executed must be reset (or rebuilt
// via PlaneFor) before serving a fresh run from cycle 0 — stale history
// would otherwise leak the previous run's last line value into the new
// run's first edge decision.
func (f *Transition) ResetState() {
	f.prev = 0
	f.prevSeen = false
}

// SeedHistory sets the plane's edge history to a known (value, seen) pair —
// the line history a golden-run checkpoint recorded for this site's line.
// Seeding before a checkpoint-restored run makes the plane behave exactly
// as if it had replayed the whole prefix, which is sound as long as the
// restore point precedes the site's first activating edge (before that
// edge the faulty run is bit-identical to the golden run).
func (f *Transition) SeedHistory(prev uint64, seen bool) {
	f.prev = prev
	f.prevSeen = seen
}

// History returns the plane's current edge history (the line value it last
// observed, and whether it observed one at all) — the counterpart of
// SeedHistory.
func (f *Transition) History() (prev uint64, seen bool) {
	return f.prev, f.prevSeen
}

// MuxData implements Plane: on the faulty (lane, operand, path) line, a
// delayed edge delivers the previous bit value once. Like Single.MuxData,
// only a forwarding-unit mux-data site injects here — a site for another
// unit handed to NewTransition stays transparent.
func (f *Transition) MuxData(lane, operand, path uint8, v uint64) uint64 {
	s := f.S
	if s.Unit != UnitFwd || s.Signal != SigMuxData ||
		s.Lane != lane || s.Operand != operand || s.Path != path {
		return v
	}
	bit := (v >> s.Bit) & 1
	out := v
	if f.prevSeen {
		prevBit := (f.prev >> s.Bit) & 1
		switch s.Kind {
		case KindSlowRise:
			if prevBit == 0 && bit == 1 {
				out = v &^ (1 << s.Bit)
			}
		case KindSlowFall:
			if prevBit == 1 && bit == 0 {
				out = v | 1<<s.Bit
			}
		}
	}
	f.prev = v
	f.prevSeen = true
	return out
}

var _ Plane = (*Transition)(nil)

// TransitionFaults enumerates slow-to-rise and slow-to-fall faults on
// every forwarding bypass data line (paths 1..5, like ForwardingLogic).
func TransitionFaults(o ListOptions) []Site {
	o = o.norm()
	var sites []Site
	for lane := uint8(0); lane < 2; lane++ {
		for op := uint8(0); op < 2; op++ {
			for path := uint8(PathEXL0); path <= PathCascade; path++ {
				if path == PathCascade && lane == 0 {
					continue
				}
				for bit := 0; bit < o.DataBits; bit += o.BitStep {
					for _, k := range []Kind{KindSlowRise, KindSlowFall} {
						sites = append(sites, Site{
							Unit: UnitFwd, Signal: SigMuxData, Kind: k,
							Lane: lane, Operand: op, Path: path, Bit: uint8(bit),
						})
					}
				}
			}
		}
	}
	return sites
}

// PlaneFor builds the right plane for a site's kind.
func PlaneFor(s Site) Plane {
	if s.Kind == KindStuckAt {
		return NewSingle(s)
	}
	return NewTransition(s)
}
