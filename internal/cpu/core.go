package cpu

import (
	"fmt"
	"math"

	"repro/internal/archint"
	"repro/internal/cache"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/icu"
	"repro/internal/isa"
)

// Config describes one core.
type Config struct {
	CoreID int
	Has64  bool // paired-register 64-bit extension (core C)
	ICU    icu.Config
}

// CoreA/B/C return the three configurations of the paper's SoC. Cores A and
// B are the same processor model (they differ only in physical design,
// which this architectural model cannot distinguish); core C extends the
// ISA with 64-bit paired-register operations and has a fully decoded
// interrupt cause register.
func CoreA() Config { return Config{CoreID: 0, ICU: icu.Config{SharedCauseBits: true}} }
func CoreB() Config { return Config{CoreID: 1, ICU: icu.Config{SharedCauseBits: true}} }
func CoreC() Config { return Config{CoreID: 2, Has64: true} }

// fetchQCap is the fetch queue depth in instructions.
const fetchQCap = 6

// fetchQSize is the length of the fetch queue's ring: the power of two at
// or above fetchQCap, so a position wraps with a mask.
const fetchQSize = 8

// fetched is a fetch-queue entry. It carries its decoded record by value:
// the decode-cache entry the record came from can be evicted while the
// word still waits in the queue.
type fetched struct {
	pc uint32
	decoded
}

// decCacheSize is the decode-cache capacity (power of two).
const decCacheSize = 256

type decEntry struct {
	word  uint32
	valid bool
	decoded
}

// decoded is an instruction word decoded once, together with the operand
// and hazard facts the issue, hazard and forwarding logic read on every
// issue attempt and operand read.
type decoded struct {
	inst         isa.Inst
	srcA, srcB   uint8 // source registers (isa.Inst.SrcRegs)
	useA, useB   bool
	pairA, pairB bool  // source operand is a 64-bit register pair
	rd           uint8 // architectural destination (JAL writes RegLink)
	writes       bool  // isa.Inst.WritesReg
	isLoad       bool
	isStore      bool
	isMem        bool
	isPair       bool
	alone        bool  // control, system or pair: issues alone
	size         uint8 // data access size in bytes; 0 for non-memory ops
	bad          bool  // undecodable word
}

// decode builds the record of word w.
func decode(w uint32) decoded {
	inst, ok := isa.DecodeOK(w)
	if !ok {
		return decoded{bad: true}
	}
	op := inst.Op
	d := decoded{
		inst:    inst,
		rd:      destOf(inst),
		writes:  inst.WritesReg(),
		isLoad:  op.IsLoad(),
		isStore: op.IsStore(),
		isMem:   op.IsMem(),
		isPair:  op.IsPair(),
		alone:   op.IsControl() || op.IsSystem() || op.IsPair(),
	}
	d.srcA, d.useA, d.srcB, d.useB = inst.SrcRegs()
	d.pairA, d.pairB = pairOperands(inst)
	switch op {
	case isa.OpLB, isa.OpLBU, isa.OpSB:
		d.size = 1
	case isa.OpLW, isa.OpSW:
		d.size = 4
	case isa.OpLWP, isa.OpSWP:
		d.size = 8
	}
	return d
}

// uop is an instruction in flight.
type uop struct {
	decoded
	valid    bool
	cascadeA bool // operand A takes the intra-packet cascade path
	cascadeB bool
	pc       uint32

	result   uint64 // EX result; load data is filled in MEM
	memAddr  uint32
	memSize  int // outstanding access size; stepMEM zeroes it when done
	storeVal uint64
}

type packet [2]uop

func (p *packet) any() bool { return p[0].valid || p[1].valid }

// retire empties the packet for reuse as a latch. An empty lane's valid
// flag and result word are all the pipeline reads of it: a faulty
// forwarding-mux select reads the result of an empty latch, so the result
// is zeroed too, and mkUop overwrites the rest when it issues into the
// lane.
func (p *packet) retire() {
	p[0].valid, p[0].result = false, 0
	p[1].valid, p[1].result = false, 0
}

// Counters indexes the performance counters (mirrors fault.Cnt* and the CSR
// numbers).
const numCounters = fault.NumCounters

// TraceEvent reports pipeline activity to an attached tracer.
type TraceEvent struct {
	Cycle int64
	Kind  string // "issue", "ex", "mem", "wb", "fwd", "stall", "redirect"
	Lane  int
	PC    uint32
	Inst  isa.Inst
	// Forwarding detail (Kind == "fwd").
	Operand int
	Path    int
	// Stall detail (Kind == "stall"): "if", "mem", "haz".
	Why string
	// Result carries the computed value for "ex" events.
	Result uint64
}

// TraceFn receives trace events when attached with SetTracer.
type TraceFn func(TraceEvent)

// Core is one processor core.
type Core struct {
	cfg   Config
	plane fault.Plane
	// hooks caches fault.Hooks(plane): every hook call site skips the
	// plane call when its signal class is outside the set.
	hooks fault.HookSet
	ICU   *icu.ICU

	imem cache.Client
	dmem cache.Client
	// invalidate is called by CINV with the isa.Cinv* selector; wired by
	// the SoC to the private caches.
	invalidate func(sel int32)

	CoreState

	// The stage pointers rotate over CoreState.latches each cycle —
	// advancing the pipeline is three pointer swaps instead of three
	// packet copies, which matters at one advance per simulated cycle per
	// core. They are derived from exIdx by stages after Reset and Restore.
	exPkt  *packet
	memPkt *packet
	wbPkt  *packet

	// stalled is set by a Step that ends in a MEM stall, ends in an IF
	// stall with the packets ahead drained, or finds the core halted, and
	// cleared by any other Step, Reset and Restore: only after such a Step
	// can the next cycles be quiet, so soc.SoC.Advance asks Quiet only
	// then.
	stalled bool

	// decCache memoises decode, which is pure in the fetched word: loop
	// bodies re-decode the same handful of words every iteration (and
	// every fault run of a reusable arena re-decodes the same program).
	// Direct-mapped and keyed by word, not address, so code staged into
	// writable TCM needs no invalidation; survives Reset by construction.
	decCache [decCacheSize]decEntry

	trace    TraceFn
	storeObs StoreFn
	// inj drives a deterministic interrupt-event plan into the ICU,
	// retire-indexed so the differential harness can replay the same plan
	// against the architectural reference; nil means no external events.
	inj *archint.Injector
	// cov collects microarchitectural coverage when attached; nil (the
	// default) is the zero-cost disabled mode — coverage.Map methods are
	// nil-safe, so call sites pay one predictable branch.
	cov *coverage.Map
}

// CoreState is a core's dynamic state — architectural registers, counters,
// fetch/issue front end, pipeline latches and MEM-stage progress — as one
// value: Reset assigns the power-on value, Snapshot copies it and Restore
// assigns it back. The ICU keeps its own (icu.State). Wiring, the fault
// plane, the attachments (tracer, store observer, injector, coverage) and
// the decode cache (a pure memo) stay outside it. An attached
// archint.Injector's delivery cursor is not covered: campaign arenas attach
// one under ArenaOptions.Plan, which is why they run such campaigns without
// checkpoints.
type CoreState struct {
	regs     [32]uint32
	counters [numCounters]uint64

	// Fetch.
	fetchAddr    uint32 // next 8-byte chunk to request
	skipBelow    uint32 // discard fetched words below this PC (redirects)
	fetchBusy    bool
	discardFetch bool
	fetchQ       [fetchQSize]fetched // a ring: fetchN entries from fetchHead
	fetchHead    uint8
	fetchN       int
	nextIssuePC  uint32

	// Pipeline latches: the EX packet is latches[exIdx], MEM and WB the
	// two after it (mod 3).
	latches [3]packet
	exIdx   uint8

	// MEM stage progress.
	memLane    int // lane currently accessing memory (0,1) or -1
	memStarted bool

	cycle   int64
	halted  bool
	wedged  bool
	wedgePC uint32

	// PathUse counts forwarding-mux selections per (lane, operand, path);
	// the Figure 1 demo and the coverage analysis read it.
	PathUse [2][2][fault.NumPaths]int64
}

// StoreFn observes completed data-side stores (address, value, size in
// bytes). The fault-simulation arenas use it to compare a faulty run's
// observable behaviour against the golden run's.
type StoreFn func(addr uint32, val uint64, size int)

// New builds a core. imem and dmem are the fetch- and data-side memory
// clients (wired by the SoC), invalidate is the CINV callback (may be nil),
// and plane is the fault-injection plane (nil means fault-free).
func New(cfg Config, imem, dmem cache.Client, invalidate func(sel int32), plane fault.Plane) *Core {
	if plane == nil {
		plane = fault.None
	}
	if invalidate == nil {
		invalidate = func(int32) {}
	}
	c := &Core{
		cfg:        cfg,
		plane:      plane,
		hooks:      fault.Hooks(plane),
		ICU:        icu.New(cfg.ICU, plane),
		imem:       imem,
		dmem:       dmem,
		invalidate: invalidate,
	}
	c.Reset(0)
	return c
}

// Reset restores architectural state and points fetch at pc.
func (c *Core) Reset(pc uint32) {
	c.CoreState = CoreState{memLane: -1}
	c.stages()
	c.stalled = false
	c.ICU.Reset()
	if c.inj != nil {
		c.inj.Reset()
	}
	c.redirect(pc)
}

// stages points the stage pointers at the latches exIdx names.
func (c *Core) stages() {
	c.exPkt = &c.latches[c.exIdx]
	c.memPkt = &c.latches[(c.exIdx+1)%3]
	c.wbPkt = &c.latches[(c.exIdx+2)%3]
}

// Snapshot captures the core's and its ICU's dynamic state mid-run.
func (c *Core) Snapshot() (CoreState, icu.State) { return c.CoreState, c.ICU.Snapshot() }

// Restore rewinds the core and its ICU to a snapshot, keeping the current
// plane and attachments. The in-flight fetch or data access a busy client
// may have had at the snapshot lives in the memory clients and bus — the
// SoC-level restore covers those.
func (c *Core) Restore(st CoreState, ist icu.State) {
	c.CoreState = st
	c.stages()
	c.stalled = false
	c.ICU.Restore(ist)
}

// SetPlane swaps the fault-injection plane of the core and its ICU (nil
// restores fault-free). Combined with Reset this lets one long-lived core
// serve many fault runs without being rebuilt.
func (c *Core) SetPlane(plane fault.Plane) {
	if plane == nil {
		plane = fault.None
	}
	c.plane = plane
	c.hooks = fault.Hooks(plane)
	c.ICU.SetPlane(plane)
}

// SetTracer attaches fn (nil detaches).
func (c *Core) SetTracer(fn TraceFn) { c.trace = fn }

// SetStoreObserver attaches fn to the MEM stage's store completion (nil
// detaches).
func (c *Core) SetStoreObserver(fn StoreFn) { c.storeObs = fn }

// SetCoverage attaches a coverage map to the core and its ICU (nil
// detaches). Like tracers and store observers, the attachment survives
// Reset.
func (c *Core) SetCoverage(m *coverage.Map) {
	c.cov = m
	c.ICU.SetCoverage(m)
}

// SetInjector attaches an interrupt-plan injector (nil detaches). The
// attachment survives Reset; the injector's own delivery cursor rewinds
// with the core.
func (c *Core) SetInjector(in *archint.Injector) { c.inj = in }

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Halted reports whether the core has executed HALT (or wedged).
func (c *Core) Halted() bool { return c.halted }

// Wedged reports whether the core stopped on an undecodable instruction.
func (c *Core) Wedged() bool { return c.wedged }

// Done reports whether the core is halted and the pipeline has drained.
func (c *Core) Done() bool {
	return c.halted && !c.exPkt.any() && !c.memPkt.any() && !c.wbPkt.any()
}

// Reg returns architectural register r.
func (c *Core) Reg(r uint8) uint32 { return c.regs[r&31] }

// Counter returns the raw value of performance counter id (fault.Cnt*).
func (c *Core) Counter(id int) uint64 { return c.counters[id] }

// Cycle returns the core-local cycle count.
func (c *Core) Cycle() int64 { return c.cycle }

// emit stamps ev with the cycle and hands it to the tracer. Callers check
// c.trace != nil first, so an untraced run builds no event.
func (c *Core) emit(ev TraceEvent) {
	ev.Cycle = c.cycle
	c.trace(ev)
}

// bump increments performance counter id through the fault plane's
// increment gate. Like cmpEq and ctl it runs several times a cycle, so it
// tests its hook class with a constant mask rather than HookSet.Has, which
// keeps all three within the inliner's budget.
func (c *Core) bump(id uint8) {
	if c.hooks&(1<<fault.SigCntInc) == 0 || c.plane.CounterInc(id, true) {
		c.counters[id]++
	}
}

// cmpEq is register-index comparator cmpID through the fault plane.
func (c *Core) cmpEq(cmpID, a, b uint8) bool {
	if c.hooks&(1<<fault.SigCmp) != 0 {
		return c.plane.CmpEq(cmpID, a, b)
	}
	return a == b
}

// ctl is hazard control line through the fault plane.
func (c *Core) ctl(line uint8, v bool) bool {
	if c.hooks&(1<<fault.SigCtl) != 0 {
		return c.plane.Ctl(line, v)
	}
	return v
}

// redirect flushes the front end and restarts fetch at target.
func (c *Core) redirect(target uint32) {
	target &^= 3
	c.fetchN = 0
	c.fetchAddr = target &^ 7
	c.skipBelow = target
	c.nextIssuePC = target
	if c.fetchBusy {
		// Retract the wrong-path fetch if its bus request has not been
		// granted; an in-service transfer must drain and be discarded.
		if c.imem.TryAbort() {
			c.fetchBusy = false
		} else {
			c.discardFetch = true
		}
	}
	if c.trace != nil {
		c.emit(TraceEvent{Kind: "redirect", PC: target})
	}
}

// Step advances the core one clock cycle and reports whether it is done
// (Done) after it. The SoC must step the bus first so in-flight memory
// transactions complete before the pipeline observes them.
func (c *Core) Step() (done bool) {
	if c.Done() && !c.fetchBusy {
		c.stalled = true
		return true
	}
	c.cycle++
	c.bump(fault.CntCycle)

	// WB: retire (reads the MEM/WB latch, mutates only the register file).
	retired := 0
	for lane := 0; lane < 2; lane++ {
		u := &c.wbPkt[lane]
		if !u.valid {
			continue
		}
		c.writeBack(u)
		retired++
		c.bump(fault.CntInstret)
		if c.trace != nil {
			c.emit(TraceEvent{Kind: "wb", Lane: lane, PC: u.pc, Inst: u.inst})
		}
	}

	// Snapshot the EX/MEM results: stepMEM fills load results in place,
	// and the forwarding network below must observe the pre-cycle values.
	// The result words are the only fields stepMEM mutates that the
	// forwarding network reads, so nothing else needs a copy.
	memRes := [2]uint64{c.memPkt[0].result, c.memPkt[1].result}

	// MEM: progress the packet's memory accesses.
	memDone := c.stepMEM()
	c.stalled = !memDone

	if memDone {
		// EX: execute the packet entering MEM next cycle, reading
		// forwarding sources from the pre-cycle MEM/WB latches.
		c.stepEX(c.exPkt, c.memPkt, &memRes, c.wbPkt)

		c.rotate()

		// Issue: form the next packet (may be squashed by redirects that
		// stepEX performed, since redirect cleared the fetch queue).
		// c.memPkt now holds the packet that was in EX this cycle — the
		// load-use hazard source.
		c.stepIssue(c.memPkt)
	} else {
		c.wbPkt.retire()
		if c.exPkt.any() || c.memPkt.any() {
			c.bump(fault.CntMemStall)
			c.cov.Inc(coverage.FeatStallMem)
			if c.trace != nil {
				c.emit(TraceEvent{Kind: "stall", Why: "mem"})
			}
		}
	}

	// Fetch: keep the queue full.
	c.stepFetch()

	// External interrupt events matured by this cycle's retirements, then
	// the recognition pipeline.
	if c.inj != nil {
		c.inj.Tick(retired, c.ICU.Raise)
	}
	c.ICU.Tick(retired)
	return c.Done()
}

// rotate advances the latches by rotating the packet buffers: the retired
// MEM/WB packet becomes the cleared new issue slot, and exIdx follows it.
func (c *Core) rotate() {
	spare := c.wbPkt
	c.wbPkt = c.memPkt
	c.memPkt = c.exPkt
	spare.retire()
	c.exPkt = spare
	c.exIdx = (c.exIdx + 2) % 3
	c.memLane = -1
	c.memStarted = false
}

// watchedHooks are the plane hooks a quiet cycle would call: the cycle
// and stall counters' increment gates and the ICU's event-line poll.
const watchedHooks = 1<<fault.SigCntInc | 1<<fault.SigEvLine

// Stalled reports whether the last Step ended in a MEM stall, ended in an
// IF stall with the packets ahead drained, or found the core halted: the
// only Steps after which Quiet can be non-zero.
func (c *Core) Stalled() bool { return c.stalled }

// Quiet returns how many of the next Steps only count, provided the bus
// completes no transfer meanwhile: math.MaxInt64 for a done core or for a
// wait only the bus ends, fewer when the ICU's recognition countdown
// matures first during an IF stall, and 0 when the next Step does more.
// Such a Step either finds the core done, or advances a core that waits
// on a bus transfer: a MEM stage waiting on its access (the first stall
// cycle has retired the WB packet), or an empty pipeline waiting on a
// fetch with an empty fetch queue, or halted; in both, the fetch side
// waits on its transfer or does not fetch. Nothing may watch the cycle:
// no tracer, coverage map or interrupt injector, and no plane hook on
// counter increments or event lines.
func (c *Core) Quiet() int64 {
	if c.Done() && !c.fetchBusy {
		return math.MaxInt64
	}
	if c.trace != nil || c.cov != nil || c.inj != nil || c.hooks&watchedHooks != 0 || c.wbPkt.any() {
		return 0
	}
	if c.fetchBusy {
		if !c.imem.Waiting() {
			return 0
		}
	} else if !c.halted && c.fetchN <= fetchQCap-2 {
		return 0
	}
	if c.memLane >= 0 {
		if c.memStarted && c.dmem.Waiting() {
			return math.MaxInt64
		}
		return 0
	}
	if c.exPkt.any() || c.memPkt.any() {
		return 0
	}
	if c.halted {
		return math.MaxInt64
	}
	if c.fetchN != 0 {
		return 0
	}
	return c.ICU.QuietIssues()
}

// Skip applies n quiet Steps (n <= Quiet()) at once: the cycle count and
// its counter, and the MEM stall count of a MEM stall (whose first cycle,
// a Step, has retired the WB packet already), or the latch rotation and
// the IF stall count of an empty pipeline; then the ICU's countdown.
func (c *Core) Skip(n int64) {
	if c.Done() && !c.fetchBusy {
		return
	}
	c.cycle += n
	c.counters[fault.CntCycle] += uint64(n)
	if c.memLane >= 0 {
		c.counters[fault.CntMemStall] += uint64(n)
	} else {
		// Three rotations retire every latch and bring the stage
		// pointers back, so n rotations come to min(n, 3+n%3).
		for range min(n, 3+n%3) {
			c.rotate()
		}
		if !c.halted {
			c.counters[fault.CntIFStall] += uint64(n)
		}
	}
	c.ICU.Skip(n)
}

func (c *Core) writeBack(u *uop) {
	if !u.writes || u.rd == 0 {
		return
	}
	c.regs[u.rd] = uint32(u.result)
	if u.isPair {
		hi := (u.rd + 1) & 31
		if hi != 0 {
			c.regs[hi] = uint32(u.result >> 32)
		}
	}
}

// stepMEM advances the MEM stage. It returns true when the packet in MEM
// (possibly empty) has finished all its memory work and the pipeline may
// advance.
func (c *Core) stepMEM() bool {
	for {
		if c.memLane < 0 {
			// Find the next lane with outstanding memory work.
			next := -1
			for lane := 0; lane < 2; lane++ {
				u := &c.memPkt[lane]
				if u.valid && u.memSize != 0 {
					next = lane
					break
				}
			}
			if next < 0 {
				return true
			}
			c.memLane = next
			c.memStarted = false
		}
		u := &c.memPkt[c.memLane]
		if !c.memStarted {
			c.dmem.Start(u.memAddr, u.isStore, u.storeVal, u.memSize)
			c.memStarted = true
		}
		done, data := c.dmem.Tick()
		if !done {
			return false
		}
		if u.isLoad {
			u.result = c.loadExtend(u.inst.Op, data)
		}
		if u.isStore && c.storeObs != nil {
			c.storeObs(u.memAddr, u.storeVal, u.memSize)
		}
		if c.cov != nil {
			c.cov.Inc(memCovFeat(u.isStore, u.memSize))
		}
		u.memSize = 0 // mark this lane's access complete
		c.memLane = -1
		c.memStarted = false
		if c.trace != nil {
			c.emit(TraceEvent{Kind: "mem", Lane: 0, PC: u.pc, Inst: u.inst})
		}
	}
}

// memCovFeat maps a completed data-side access onto its coverage feature.
func memCovFeat(store bool, size int) coverage.Feature {
	switch {
	case store && size == 1:
		return coverage.FeatStoreByte
	case store && size == 8:
		return coverage.FeatStorePair
	case store:
		return coverage.FeatStoreWord
	case size == 1:
		return coverage.FeatLoadByte
	case size == 8:
		return coverage.FeatLoadPair
	}
	return coverage.FeatLoadWord
}

func (c *Core) loadExtend(op isa.Op, data uint64) uint64 {
	switch op {
	case isa.OpLB:
		return uint64(uint32(int32(int8(uint8(data)))))
	case isa.OpLBU:
		return data & 0xFF
	case isa.OpLW:
		return data & 0xFFFFFFFF
	case isa.OpLWP:
		return data
	}
	return data
}

// String summarises the core state (debugging aid).
func (c *Core) String() string {
	return fmt.Sprintf("core%d cycle=%d halted=%v wedged=%v nextPC=%#x qlen=%d",
		c.cfg.CoreID, c.cycle, c.halted, c.wedged, c.nextIssuePC, c.fetchN)
}
