package fault

// Plane is the injection surface the CPU, HDCU, ICU and counters consult.
// Every method transforms a signal value; the fault-free plane is the
// identity. Implementations must be deterministic and cheap: these hooks
// sit on the pipeline's per-cycle paths. Callers skip the hooks of signal
// classes outside the plane's Hooks set; a plane type Hooks does not know
// is called on every hook.
type Plane interface {
	// MuxData transforms the value delivered by the *selected* input of
	// the forwarding mux feeding (lane, operand). Faults on unselected
	// inputs are masked, as in an AND-OR mux tree.
	MuxData(lane, operand, path uint8, v uint64) uint64
	// MuxSel transforms the select code of the forwarding mux.
	MuxSel(lane, operand, sel uint8) uint8
	// CmpEq transforms a register-index equality comparison. A stuck XNOR
	// output bit makes that bit position always-equal (SA1) or
	// never-equal (SA0).
	CmpEq(cmpID uint8, a, b uint8) bool
	// Ctl transforms a hazard control line.
	Ctl(line uint8, v bool) bool
	// EvLine transforms an ICU event pending line.
	EvLine(line uint8, v bool) bool
	// Cause transforms the ICU cause register value.
	Cause(v uint32) uint32
	// Dist transforms the ICU imprecision distance value.
	Dist(v uint32) uint32
	// Enable transforms the ICU enable mask as seen by recognition logic.
	Enable(v uint32) uint32
	// EPC transforms the ICU saved resume PC.
	EPC(v uint32) uint32
	// CounterRead transforms a performance counter value as read by CSRR.
	CounterRead(id uint8, v uint32) uint32
	// CounterInc gates a performance counter increment.
	CounterInc(id uint8, inc bool) bool
}

// None is the fault-free plane.
var None Plane = noFault{}

// HookSet is a set of signal classes, one bit per Signal: the Plane hooks
// a plane can make differ from the identity.
type HookSet uint16

// AllHooks is every signal class.
const AllHooks HookSet = 1<<(SigCntInc+1) - 1

// Has reports whether s is in the set.
func (h HookSet) Has(s Signal) bool { return h>>s&1 != 0 }

// Hooks returns the signal classes plane p can transform. Every hook of a
// class outside the set is the identity, so the pipeline and the ICU,
// which cache the set once per plane, skip those calls on their per-cycle
// paths. The probe and any plane type Hooks does not know get every class:
// they see every call.
func Hooks(p Plane) HookSet {
	switch f := p.(type) {
	case noFault:
		return 0
	case *Single:
		return 1 << f.S.Signal
	case *Transition:
		return 1 << SigMuxData
	case *Composite:
		var h HookSet
		for _, part := range f.Parts {
			h |= Hooks(part)
		}
		return h
	}
	return AllHooks
}

// ResetPlaneState clears any per-run state plane p carries — a
// Transition's edge history, recursively through Composite components.
// Stateless planes are untouched. Engines call it before serving a fresh
// run from cycle 0 with a plane object that may already have executed.
// The switch names the stateful plane types, as Hooks names the planes it
// knows: a switch over concrete types compares type words and never
// fills the runtime's type-assertion caches, which allocate, so a run
// stays allocation-free.
func ResetPlaneState(p Plane) {
	switch f := p.(type) {
	case *Transition:
		f.ResetState()
	case *Composite:
		f.ResetState()
	}
}

type noFault struct{}

func (noFault) MuxData(_, _, _ uint8, v uint64) uint64 { return v }
func (noFault) MuxSel(_, _, sel uint8) uint8           { return sel }
func (noFault) CmpEq(_ uint8, a, b uint8) bool         { return a == b }
func (noFault) Ctl(_ uint8, v bool) bool               { return v }
func (noFault) EvLine(_ uint8, v bool) bool            { return v }
func (noFault) Cause(v uint32) uint32                  { return v }
func (noFault) Dist(v uint32) uint32                   { return v }
func (noFault) Enable(v uint32) uint32                 { return v }
func (noFault) EPC(v uint32) uint32                    { return v }
func (noFault) CounterRead(_ uint8, v uint32) uint32   { return v }
func (noFault) CounterInc(_ uint8, inc bool) bool      { return inc }

// Single injects exactly one stuck-at fault site.
type Single struct {
	S Site
}

// NewSingle returns a plane with the one fault s injected.
func NewSingle(s Site) *Single { return &Single{S: s} }

func (f *Single) MuxData(lane, operand, path uint8, v uint64) uint64 {
	s := f.S
	if s.Unit == UnitFwd && s.Signal == SigMuxData &&
		s.Lane == lane && s.Operand == operand && s.Path == path {
		return forceBit64(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) MuxSel(lane, operand, sel uint8) uint8 {
	s := f.S
	if s.Unit == UnitFwd && s.Signal == SigMuxSel &&
		s.Lane == lane && s.Operand == operand {
		return uint8(forceBit32(uint32(sel), s.Bit, s.Stuck)) & (1<<SelBits - 1)
	}
	return sel
}

func (f *Single) CmpEq(cmpID uint8, a, b uint8) bool {
	s := f.S
	if s.Unit == UnitHDCU && s.Signal == SigCmp && s.Path == cmpID {
		// Per-bit XNOR outputs, then AND. The faulty bit's XNOR output is
		// stuck: SA1 makes that bit always match, SA0 never.
		xnor := ^(a ^ b) & (1<<CmpBits - 1)
		xnor = uint8(forceBit32(uint32(xnor), s.Bit, s.Stuck))
		return xnor == 1<<CmpBits-1
	}
	return a == b
}

func (f *Single) Ctl(line uint8, v bool) bool {
	s := f.S
	if s.Unit == UnitHDCU && s.Signal == SigCtl && s.Path == line {
		return forceBool(s.Stuck)
	}
	return v
}

func (f *Single) EvLine(line uint8, v bool) bool {
	s := f.S
	if s.Unit == UnitICU && s.Signal == SigEvLine && s.Path == line {
		return forceBool(s.Stuck)
	}
	return v
}

func (f *Single) Cause(v uint32) uint32 {
	s := f.S
	if s.Unit == UnitICU && s.Signal == SigCause {
		return forceBit32(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) Dist(v uint32) uint32 {
	s := f.S
	if s.Unit == UnitICU && s.Signal == SigDist {
		return forceBit32(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) Enable(v uint32) uint32 {
	s := f.S
	if s.Unit == UnitICU && s.Signal == SigEnable {
		return forceBit32(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) EPC(v uint32) uint32 {
	s := f.S
	if s.Unit == UnitICU && s.Signal == SigEPC {
		return forceBit32(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) CounterRead(id uint8, v uint32) uint32 {
	s := f.S
	if s.Unit == UnitPerf && s.Signal == SigCntBit && s.Lane == id {
		return forceBit32(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) CounterInc(id uint8, inc bool) bool {
	s := f.S
	if s.Unit == UnitPerf && s.Signal == SigCntInc && s.Lane == id {
		return forceBool(s.Stuck)
	}
	return inc
}

var (
	_ Plane = noFault{}
	_ Plane = (*Single)(nil)
)
