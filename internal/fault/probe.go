package fault

import "math/bits"

// Golden-run activation probing. A fault plane is transparent until the
// first hook call whose output it changes: up to that call the faulty run
// is bit-identical to the golden run (the good-vs-faulty divergence
// principle of concurrent fault simulation). Probe is an identity plane
// installed during a golden capture run that records, for every line any
// Plane hook carries, the golden cycles at which each fault on that line
// would first change the hook's output:
//
//   - a stuck-at fault at bit b of a value line (mux data and select, ICU
//     registers, counter reads) activates the first time the golden run
//     drives bit b to the other value;
//   - a stuck-at fault on a boolean line (hazard control, ICU event,
//     counter increment) activates the first time the line carries the
//     other value;
//   - a stuck XNOR output bit of a register comparator activates at the
//     first equal compare (SA0) or at the first compare that differs in
//     exactly that bit (SA1);
//   - a slow-rise (slow-fall) transition fault at bit b of a forwarding-mux
//     data line activates the first time bit b rises (falls) between
//     consecutive uses of the line.
//
// That site→cycle metadata is what checkpointed arenas use to pick how much
// golden prefix each run may skip. The probe also keeps the per-line value
// history checkpoints need to seed restored Transition planes consistently.

// numMuxLines is the number of distinct forwarding-mux data lines:
// (lane, operand, path) with 2 lanes, 2 operands and NumPaths paths.
const numMuxLines = 2 * 2 * NumPaths

func muxLineIndex(lane, operand, path uint8) int {
	return (int(lane)*2+int(operand))*NumPaths + int(path)
}

// bitLine records, per bit of one hooked line, the first golden cycle the
// bit was seen at 0 and the first it was seen at 1. Boolean lines use bit
// 0 only.
type bitLine struct {
	seen  [2]uint64    // seen[v] has bit b set once bit b was seen at v
	first [2][64]int64 // first[v][b] is the cycle of that first sighting
}

// note records the bits of v that mask selects, at cycle now().
func (l *bitLine) note(v, mask uint64, now func() int64) {
	fresh1 := v & mask &^ l.seen[1]
	fresh0 := ^v & mask &^ l.seen[0]
	if fresh0|fresh1 == 0 {
		return
	}
	t := now()
	l.mark(1, fresh1, t)
	l.mark(0, fresh0, t)
}

func (l *bitLine) mark(v int, fresh uint64, t int64) {
	l.seen[v] |= fresh
	for ; fresh != 0; fresh &= fresh - 1 {
		l.first[v][bits.TrailingZeros64(fresh)] = t
	}
}

// at returns the first cycle bit b was seen at v, or -1 if it never was.
func (l *bitLine) at(v, b uint8) int64 {
	if l.seen[v]>>b&1 == 0 {
		return -1
	}
	return l.first[v][b]
}

// muxLine is one forwarding-mux data line's probe state: the levels each
// bit took, the edges each bit made (at 1 = rise, at 0 = fall) and the last
// delivered value (the edge history a Transition plane keeps).
type muxLine struct {
	level, edge bitLine
	prev        uint64
	seen        bool
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

// Probe is an identity Plane that watches every hooked line of a golden
// run. now reports the current simulation cycle (the probe has no clock of
// its own). Like all planes it serves one core; after the capture run
// finishes the recorded data is read-only and may be shared across arenas.
type Probe struct {
	now func() int64

	mux    [numMuxLines]muxLine // MuxData per (lane, operand, path)
	sel    [2 * 2]bitLine       // MuxSel per (lane, operand)
	cmp    [NumCmp]bitLine      // CmpEq per comparator, see CmpEq
	ctl    [NumCtl]bitLine
	ev     [NumEvents]bitLine
	cntRd  [NumCounters]bitLine
	cntInc [NumCounters]bitLine
	cause  bitLine
	dist   bitLine
	enable bitLine
	epc    bitLine
}

// NewProbe builds a probe reading the capture run's clock through now.
func NewProbe(now func() int64) *Probe { return &Probe{now: now} }

const (
	mask32  = 1<<32 - 1
	maskSel = 1<<SelBits - 1
	maskCmp = 1<<CmpBits - 1
)

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// MuxData implements Plane: identity on the value, recording its levels and
// edges per bit.
func (p *Probe) MuxData(lane, operand, path uint8, v uint64) uint64 {
	l := &p.mux[muxLineIndex(lane, operand, path)]
	l.level.note(v, ^uint64(0), p.now)
	if l.seen {
		l.edge.note(v, l.prev^v, p.now)
	}
	l.prev, l.seen = v, true
	return v
}

func (p *Probe) MuxSel(lane, operand, sel uint8) uint8 {
	p.sel[lane*2+operand].note(uint64(sel), maskSel, p.now)
	return sel
}

// CmpEq implements Plane. A stuck XNOR output bit changes the comparison
// only when every other bit position matches: SA0 at any bit turns an
// equal compare unequal, and SA1 at bit b turns equal the compare whose
// register indices differ in bit b alone. The comparator's line records the
// former as every bit seen at 1 and the latter as bit b seen at 0.
func (p *Probe) CmpEq(cmpID uint8, a, b uint8) bool {
	l := &p.cmp[cmpID]
	if a == b {
		l.note(maskCmp, maskCmp, p.now)
	} else if x := uint64(a^b) & maskCmp; x&(x-1) == 0 {
		l.note(0, x, p.now)
	}
	return a == b
}

func (p *Probe) Ctl(line uint8, v bool) bool {
	p.ctl[line].note(b2u(v), 1, p.now)
	return v
}

func (p *Probe) EvLine(line uint8, v bool) bool {
	p.ev[line].note(b2u(v), 1, p.now)
	return v
}

func (p *Probe) Cause(v uint32) uint32 {
	p.cause.note(uint64(v), mask32, p.now)
	return v
}

func (p *Probe) Dist(v uint32) uint32 {
	p.dist.note(uint64(v), mask32, p.now)
	return v
}

func (p *Probe) Enable(v uint32) uint32 {
	p.enable.note(uint64(v), mask32, p.now)
	return v
}

func (p *Probe) EPC(v uint32) uint32 {
	p.epc.note(uint64(v), mask32, p.now)
	return v
}

func (p *Probe) CounterRead(id uint8, v uint32) uint32 {
	p.cntRd[id].note(uint64(v), mask32, p.now)
	return v
}

func (p *Probe) CounterInc(id uint8, inc bool) bool {
	p.cntInc[id].note(b2u(inc), 1, p.now)
	return inc
}

// FirstActivation returns the golden-run cycle at which the fault at site s
// (a Single for a stuck-at site, a Transition otherwise) first changes a
// hook's output, or -1 when it never does: the golden run never drives the
// site's line to the activating value, so the faulty run is bit-identical
// to the golden run throughout. It returns 0 ("live from cycle 0", the
// conservative answer) for a stuck-at site the probe does not model, such
// as one with an index out of range. A Transition site off the forwarding
// data lines never activates, as its MuxData guard filters it. Sound only
// for runs over the same program and environment as the capture run, up to
// the returned cycle.
func (p *Probe) FirstActivation(s Site) int64 {
	if s.Kind != KindStuckAt {
		if s.Unit != UnitFwd || s.Signal != SigMuxData ||
			s.Lane >= 2 || s.Operand >= 2 || s.Path >= NumPaths || s.Bit >= 64 {
			return -1
		}
		l := &p.mux[muxLineIndex(s.Lane, s.Operand, s.Path)].edge
		switch s.Kind {
		case KindSlowRise:
			return l.at(1, s.Bit)
		case KindSlowFall:
			return l.at(0, s.Bit)
		}
		return 0
	}
	l, width := p.stuckLine(s)
	if l == nil || s.Bit >= width {
		return 0
	}
	// Stuck at 1 changes the line where the golden run drives 0, and vice
	// versa (forceBit and forceBool read any nonzero Stuck as 1).
	if s.Stuck != 0 {
		return l.at(0, s.Bit)
	}
	return l.at(1, s.Bit)
}

// stuckLine returns the line a stuck-at site's Single plane forces and the
// line's width in bits, or nil when the probe does not model the site.
func (p *Probe) stuckLine(s Site) (*bitLine, uint8) {
	switch {
	case s.Unit == UnitFwd && s.Signal == SigMuxData:
		if s.Lane < 2 && s.Operand < 2 && s.Path < NumPaths {
			return &p.mux[muxLineIndex(s.Lane, s.Operand, s.Path)].level, 64
		}
	case s.Unit == UnitFwd && s.Signal == SigMuxSel:
		if s.Lane < 2 && s.Operand < 2 {
			return &p.sel[s.Lane*2+s.Operand], SelBits
		}
	case s.Unit == UnitHDCU && s.Signal == SigCmp:
		if s.Path < NumCmp {
			return &p.cmp[s.Path], CmpBits
		}
	case s.Unit == UnitHDCU && s.Signal == SigCtl:
		if s.Path < NumCtl {
			return &p.ctl[s.Path], 1
		}
	case s.Unit == UnitICU && s.Signal == SigEvLine:
		if s.Path < NumEvents {
			return &p.ev[s.Path], 1
		}
	case s.Unit == UnitICU && s.Signal == SigCause:
		return &p.cause, 32
	case s.Unit == UnitICU && s.Signal == SigDist:
		return &p.dist, 32
	case s.Unit == UnitICU && s.Signal == SigEnable:
		return &p.enable, 32
	case s.Unit == UnitICU && s.Signal == SigEPC:
		return &p.epc, 32
	case s.Unit == UnitPerf && s.Signal == SigCntBit:
		if s.Lane < NumCounters {
			return &p.cntRd[s.Lane], 32
		}
	case s.Unit == UnitPerf && s.Signal == SigCntInc:
		if s.Lane < NumCounters {
			return &p.cntInc[s.Lane], 1
		}
	}
	return nil, 0
}

// History snapshots every line's edge history at the current point of the
// capture run.
func (p *Probe) History() MuxHistory {
	var h MuxHistory
	for i := range p.mux {
		h.prev[i] = p.mux[i].prev
		h.seen[i] = p.mux[i].seen
	}
	return h
}

var _ Plane = (*Probe)(nil)
