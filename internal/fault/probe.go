package fault

import "math/bits"

// Golden-run activation probing. A Transition fault is transparent until
// its first activating edge: the run of a slow-rise (slow-fall) fault at
// bit b of a forwarding-mux line is bit-identical to the golden run up to
// the first time bit b rises (falls) between consecutive uses of that
// line. MuxProbe is an identity plane installed during a golden capture
// run that records, per line and bit, the cycle of that first edge — the
// site→window metadata checkpointed arenas use to pick how much golden
// prefix each Transition run may skip — plus the per-line value history
// checkpoints need to seed restored planes consistently.

// numMuxLines is the number of distinct forwarding-mux data lines:
// (lane, operand, path) with 2 lanes, 2 operands and NumPaths paths.
const numMuxLines = 2 * 2 * NumPaths

func muxLineIndex(lane, operand, path uint8) int {
	return (int(lane)*2+int(operand))*NumPaths + int(path)
}

// muxLine is one line's probe state: the last delivered value (the edge
// history a Transition plane keeps) and per bit the first edge cycles
// (-1 = no such edge in the run).
type muxLine struct {
	prev uint64
	seen bool

	firstRise [64]int64
	firstFall [64]int64
}

// MuxHistory is a point-in-time copy of every line's (prev, seen) edge
// history, stored with each checkpoint so restored Transition planes can be
// seeded as if they had replayed the whole prefix.
type MuxHistory struct {
	prev [numMuxLines]uint64
	seen [numMuxLines]bool
}

// For returns the edge history of site s's line at the history's capture
// point, in the form Transition.SeedHistory takes.
func (h *MuxHistory) For(s Site) (prev uint64, seen bool) {
	i := muxLineIndex(s.Lane, s.Operand, s.Path)
	return h.prev[i], h.seen[i]
}

// MuxProbe is an identity Plane that watches the forwarding-mux data lines
// of a golden run. now reports the current simulation cycle (the probe has
// no clock of its own). Like all planes it serves one core; after the
// capture run finishes the recorded data is read-only and may be shared
// across arenas.
type MuxProbe struct {
	noFault // every hook but MuxData is identity
	now     func() int64
	lines   [numMuxLines]muxLine
}

// NewMuxProbe builds a probe reading the capture run's clock through now.
func NewMuxProbe(now func() int64) *MuxProbe {
	p := &MuxProbe{now: now}
	for i := range p.lines {
		l := &p.lines[i]
		for b := range l.firstRise {
			l.firstRise[b] = -1
			l.firstFall[b] = -1
		}
	}
	return p
}

// MuxData implements Plane: identity on the value, recording the first
// edges per bit.
func (p *MuxProbe) MuxData(lane, operand, path uint8, v uint64) uint64 {
	l := &p.lines[muxLineIndex(lane, operand, path)]
	if l.seen {
		rise := ^l.prev & v
		fall := l.prev & ^v
		if rise|fall != 0 {
			now := p.now()
			for rise != 0 {
				b := bits.TrailingZeros64(rise)
				rise &= rise - 1
				if l.firstRise[b] < 0 {
					l.firstRise[b] = now
				}
			}
			for fall != 0 {
				b := bits.TrailingZeros64(fall)
				fall &= fall - 1
				if l.firstFall[b] < 0 {
					l.firstFall[b] = now
				}
			}
		}
	}
	l.prev = v
	l.seen = true
	return v
}

// FirstActivation returns the golden-run cycle at which a Transition fault
// at site s first modifies a delivered value, -1 when it never does (its
// whole run is bit-identical to the golden run), and 0 when s is not a
// forwarding-mux transition site the probe models (conservatively "live
// from cycle 0"). Sound only for runs over the same program and
// environment as the capture run, up to the returned cycle.
func (p *MuxProbe) FirstActivation(s Site) int64 {
	if s.Unit != UnitFwd || s.Signal != SigMuxData ||
		s.Lane >= 2 || s.Operand >= 2 || s.Path >= NumPaths || s.Bit >= 64 {
		if s.Kind == KindStuckAt {
			return 0
		}
		// A Transition for a non-forwarding site never injects (its MuxData
		// guard filters it), so it never activates.
		return -1
	}
	l := &p.lines[muxLineIndex(s.Lane, s.Operand, s.Path)]
	switch s.Kind {
	case KindSlowRise:
		return l.firstRise[s.Bit]
	case KindSlowFall:
		return l.firstFall[s.Bit]
	}
	return 0
}

// History snapshots every line's edge history at the current point of the
// capture run.
func (p *MuxProbe) History() MuxHistory {
	var h MuxHistory
	for i := range p.lines {
		h.prev[i] = p.lines[i].prev
		h.seen[i] = p.lines[i].seen
	}
	return h
}

var _ Plane = (*MuxProbe)(nil)
