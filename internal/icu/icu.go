package icu

import (
	"math"

	"repro/internal/coverage"
	"repro/internal/fault"
)

// RecognitionDelay is the number of clock cycles the recognition pipeline
// takes between an event being latched and the interrupt being requested at
// the next issue boundary. The number of younger instructions that retire
// in this window — the imprecision distance — depends on the issue rate,
// which is what couples it to fetch and bus timing.
const RecognitionDelay = 24

// Config selects the cause-encoder variant.
type Config struct {
	// SharedCauseBits maps event pairs onto shared cause bits (cores A/B).
	SharedCauseBits bool
}

// ICU is one core's interrupt control unit.
type ICU struct {
	cfg   Config
	plane fault.Plane
	// hooks caches fault.Hooks(plane): the ICU skips the plane call of
	// every hook class outside it, and Tick polls the event lines only
	// when the plane can force one.
	hooks fault.HookSet
	// cov collects interrupt-recognition coverage when attached; nil (the
	// default) is the zero-cost disabled mode.
	cov *coverage.Map

	State

	// _ fills ICU out to whole 64-byte host cache lines (128
	// bytes); see soc.TestHotStateOwnsCacheLines.
	_ [16]byte
}

// State is the ICU's dynamic state — pending lines, architectural
// registers and recognition pipeline — as one value: Reset assigns the
// power-on value, Snapshot copies it and Restore assigns it back.
// Configuration and attachments (plane, coverage) stay outside it.
type State struct {
	pending    [fault.NumEvents]bool
	numPending int

	// Architectural registers (CSR-visible).
	cause  uint32
	dist   uint32
	epc    uint32
	enable uint32
	vector uint32

	// Recognition state.
	counting  bool
	countdown int
	retired   uint32 // instructions retired since the trigger
	inHandler bool

	// sinceRFE counts retirements since the last handler return while
	// within the tail-chain window; -1 means outside it. Coverage only.
	sinceRFE int
	// maskedNoted makes FeatIntMaskedPend edge-triggered: one increment
	// per recognition episode that matures masked, not one per polled
	// cycle (dwell time would pollute the coverage signal). Coverage only.
	maskedNoted bool
}

// tailChainWindow is how many retirements after an RFE a take still counts
// as tail-chaining (back-to-back handler invocations) for coverage.
const tailChainWindow = 8

// New builds an ICU with the given configuration and fault plane.
func New(cfg Config, plane fault.Plane) *ICU {
	if plane == nil {
		plane = fault.None
	}
	u := &ICU{cfg: cfg, plane: plane, hooks: fault.Hooks(plane)}
	u.Reset()
	return u
}

// Reset restores power-on state (everything clear, interrupts disabled).
// Like the core's, a coverage attachment survives Reset.
func (u *ICU) Reset() { u.State = State{sinceRFE: -1} }

// SetCoverage attaches a coverage map for the interrupt-recognition
// features (nil detaches). The attachment survives Reset.
func (u *ICU) SetCoverage(m *coverage.Map) { u.cov = m }

// Snapshot captures the ICU's dynamic state mid-run.
func (u *ICU) Snapshot() State { return u.State }

// Restore rewinds the dynamic state to a snapshot, keeping the current
// plane, configuration and coverage attachment.
func (u *ICU) Restore(st State) { u.State = st }

// SetPlane swaps the fault-injection plane (nil restores fault-free). Used
// by reusable fault-simulation arenas, which reset one long-lived ICU
// between runs instead of rebuilding it.
func (u *ICU) SetPlane(plane fault.Plane) {
	if plane == nil {
		plane = fault.None
	}
	u.plane = plane
	u.hooks = fault.Hooks(plane)
}

// encodeCause maps pending event lines to cause bits.
func (u *ICU) encodeCause() uint32 {
	var c uint32
	for line := uint8(0); line < fault.NumEvents; line++ {
		if !u.pending[line] {
			continue
		}
		if u.cfg.SharedCauseBits {
			c |= 1 << (line / 2) // lines {0,1}->bit0, {2,3}->bit1
		} else {
			c |= 1 << line
		}
	}
	if u.hooks.Has(fault.SigCause) {
		c = u.plane.Cause(c)
	}
	return c
}

// Raise latches a synchronous event from the execute stage. The fault
// plane can force a line stuck (spurious or missing events).
func (u *ICU) Raise(line uint8) {
	if !u.hooks.Has(fault.SigEvLine) || u.plane.EvLine(line, true) {
		if !u.pending[line] {
			u.numPending++
		}
		u.pending[line] = true
		if u.inHandler {
			u.cov.Inc(coverage.FeatIntPendInHandler)
		}
	}
	if !u.counting && !u.inHandler {
		u.counting = true
		u.countdown = RecognitionDelay
		u.retired = 0
		u.maskedNoted = false
	}
}

// Tick advances the recognition pipeline by one clock cycle; retired is the
// number of instructions that left the pipeline this cycle.
func (u *ICU) Tick(retired int) {
	// Polling the event lines is a no-op unless the plane can force one.
	if u.hooks.Has(fault.SigEvLine) {
		// Stuck-at-1 event lines raise events spontaneously.
		for line := uint8(0); line < fault.NumEvents; line++ {
			if !u.pending[line] && u.plane.EvLine(line, false) {
				u.Raise(line)
			}
			// Stuck-at-0 lines drop latched events.
			if u.pending[line] && !u.plane.EvLine(line, true) {
				u.pending[line] = false
				u.numPending--
			}
		}
	}
	if u.sinceRFE >= 0 {
		if u.sinceRFE += retired; u.sinceRFE > tailChainWindow {
			u.sinceRFE = -1
		}
	}
	if !u.counting {
		return
	}
	u.retired += uint32(retired)
	if u.countdown > 0 {
		u.countdown--
	}
}

// WantInterrupt reports whether the recognition pipeline has matured and an
// enabled pending event should redirect the core at the next issue
// boundary.
func (u *ICU) WantInterrupt() bool {
	if u.inHandler || !u.counting || u.countdown > 0 {
		return false
	}
	c, enabled := u.recognised()
	if !enabled {
		if c != 0 && !u.maskedNoted {
			u.cov.Inc(coverage.FeatIntMaskedPend)
			u.maskedNoted = true
		}
		return false
	}
	return true
}

// recognised returns the encoded cause and whether the enable mask, as
// the recognition logic sees it, passes any of it.
func (u *ICU) recognised() (cause uint32, enabled bool) {
	c := u.encodeCause()
	enable := u.enable
	if u.hooks.Has(fault.SigEnable) {
		enable = u.plane.Enable(enable)
	}
	return c, c&enable != 0
}

// QuietIssues returns how many of the next issue attempts WantInterrupt
// answers false without changing anything, provided the pending lines
// and the enable mask stay as they are and each attempt is followed by a
// Tick that retires nothing: math.MaxInt64 outside a recognition episode
// or when the matured episode stays masked, else the cycles the
// countdown has left.
func (u *ICU) QuietIssues() int64 {
	if u.inHandler || !u.counting {
		return math.MaxInt64
	}
	if c, enabled := u.recognised(); !enabled && (c == 0 || u.maskedNoted) {
		return math.MaxInt64
	}
	return int64(u.countdown)
}

// Skip applies n Ticks that retire nothing (n within QuietIssues when
// the core issues meanwhile): the recognition countdown. The event lines
// must not be hooked, since Tick polls them.
func (u *ICU) Skip(n int64) {
	if u.counting {
		u.countdown = int(max(int64(u.countdown)-n, 0))
	}
}

// TakeInterrupt commits the interrupt: latches cause/distance/EPC, clears
// pending state and returns the handler vector. resumePC is the PC of the
// oldest instruction that has not entered the pipeline.
func (u *ICU) TakeInterrupt(resumePC uint32) (vector uint32) {
	u.cause = u.encodeCause()
	u.dist = u.retired & 0xFF
	if u.hooks.Has(fault.SigDist) {
		u.dist = u.plane.Dist(u.dist)
	}
	u.epc = resumePC
	if u.hooks.Has(fault.SigEPC) {
		u.epc = u.plane.EPC(u.epc)
	}
	for i := range u.pending {
		u.pending[i] = false
	}
	u.numPending = 0
	u.counting = false
	u.inHandler = true
	u.maskedNoted = false
	if u.cov != nil {
		if c := u.cause; c&(c-1) != 0 {
			u.cov.Inc(coverage.FeatIntCauseMulti)
		}
		if u.sinceRFE >= 0 {
			u.cov.Inc(coverage.FeatIntTailChain)
		}
	}
	u.sinceRFE = -1
	return u.vector
}

// ReturnFromException ends handler mode and returns the resume PC. Events
// that pended while the handler ran re-arm the recognition pipeline here:
// pending state is level-latched, so an enabled event is eventually
// recognised no matter when it arrived — the architectural delivery
// guarantee the differential interrupt harness (internal/archint) rests
// on.
func (u *ICU) ReturnFromException() uint32 {
	u.inHandler = false
	u.cov.Inc(coverage.FeatIntReti)
	u.sinceRFE = 0
	if u.numPending != 0 && !u.counting {
		u.counting = true
		u.countdown = RecognitionDelay
		u.retired = 0
	}
	return u.epc
}

// InHandler reports whether the core is executing the handler.
func (u *ICU) InHandler() bool { return u.inHandler }

// PendingMask returns the raw pending lines (CSR ipend).
func (u *ICU) PendingMask() uint32 {
	var m uint32
	for line := uint8(0); line < fault.NumEvents; line++ {
		if u.pending[line] {
			m |= 1 << line
		}
	}
	return m
}

// CSR accessors used by the CPU's CSRR/CSRW implementation.

func (u *ICU) Cause() uint32  { return u.cause }
func (u *ICU) Dist() uint32   { return u.dist }
func (u *ICU) EPC() uint32    { return u.epc }
func (u *ICU) Enable() uint32 { return u.enable }
func (u *ICU) Vector() uint32 { return u.vector }

func (u *ICU) SetEnable(v uint32) { u.enable = v & (1<<fault.NumEvents - 1) }
func (u *ICU) SetVector(v uint32) { u.vector = v &^ 3 }

// ClearPending drops the pending lines set in mask (write-one-to-clear,
// the ipend CSR write semantics). When nothing remains pending the
// recognition pipeline is also cleared, so a stale matured countdown
// cannot make a later event fire instantly with an inflated distance.
func (u *ICU) ClearPending(mask uint32) {
	for line := uint8(0); line < fault.NumEvents; line++ {
		if mask&(1<<line) != 0 && u.pending[line] {
			u.pending[line] = false
			u.numPending--
		}
	}
	if u.numPending == 0 {
		u.counting = false
	}
}
