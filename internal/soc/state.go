package soc

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/icu"
	"repro/internal/mem"
)

// Full-SoC checkpointing. A State is everything a mid-run SoC holds beyond
// its sealed baseline: the cycle counter, bus and replayer positions, the
// dirty-page deltas of SRAM and the TCMs, cache contents, the in-flight
// state of every memory client, and each core's architectural and pipeline
// state. Snapshot/Restore complete the snapshot engine Reset's dirty-page
// machinery started: Reset rewinds to the baseline, Restore rewinds to an
// arbitrary captured cycle of a run that began with Reset.

// State is an opaque full-SoC snapshot (see Snapshot and Restore).
type State struct {
	cycle  int64
	bus    *bus.State
	replay []int
	sram   *mem.PageDelta
	cores  [NumCores]coreState
}

// Cycle returns the cycle count the snapshot was taken at.
func (st *State) Cycle() int64 { return st.cycle }

type coreState struct {
	itcm, dtcm     *mem.PageDelta
	icache, dcache *cache.State // nil when caches disabled
	// The memory clients' state values, in the CoreUnit's list order.
	tcms     []cache.TCMState
	ctrls    []cache.CtrlState
	bypasses []cache.BypassState
	// The position in routes of the client each router's access in flight
	// went to (-1 = none).
	imem, dmem int8
	core       cpu.CoreState
	icu        icu.State
	started    bool
}

// routes lists the router's clients in a fixed order, with a nil client
// for each path it does not have; snapshots name the client in flight by
// its position.
func (r *router) routes() [5]cache.Client {
	return [5]cache.Client{r.tcm, r.tcm2, r.uncached, r.flash, r.def}
}

// route returns the position in routes of the client in flight, -1 for
// none.
func (r *router) route() int8 {
	for i, c := range r.routes() {
		if r.cur != nil && c == r.cur {
			return int8(i)
		}
	}
	return -1
}

// reroute points the router at the client in position i of routes (-1 =
// none).
func (r *router) reroute(i int8) {
	r.cur = nil
	if i >= 0 {
		r.cur = r.routes()[i]
	}
}

// Snapshot captures the SoC's full dynamic state mid-run. The SoC must have
// a sealed baseline and the snapshot must be taken during a run that began
// with Reset — the memory dirty maps then hold exactly the delta from the
// baseline, which is what the snapshot stores. Snapshots are plain data:
// they may be restored into any SoC built from the same Config with the
// same programs loaded and baseline sealed, including concurrently into
// several such SoCs.
func (s *SoC) Snapshot() *State {
	if s.base == nil {
		panic("soc: Snapshot before SealBaseline")
	}
	st := &State{
		cycle: s.cycle,
		bus:   s.Bus.Snapshot(),
		sram:  s.SRAM.CaptureDelta(),
	}
	for _, r := range s.replayers {
		st.replay = append(st.replay, r.Pos())
	}
	for id, u := range s.Cores {
		cs := &st.cores[id]
		cs.itcm = u.ITCM.CaptureDelta()
		cs.dtcm = u.DTCM.CaptureDelta()
		if u.ICache != nil {
			cs.icache = u.ICache.Snapshot()
			cs.dcache = u.DCache.Snapshot()
		}
		cs.tcms = make([]cache.TCMState, len(u.tcms))
		for i, c := range u.tcms {
			cs.tcms[i] = c.TCMState
		}
		cs.ctrls = make([]cache.CtrlState, len(u.ctrls))
		for i, c := range u.ctrls {
			cs.ctrls[i] = c.CtrlState
		}
		cs.bypasses = make([]cache.BypassState, len(u.bypasses))
		for i, c := range u.bypasses {
			cs.bypasses[i] = c.BypassState
		}
		cs.imem, cs.dmem = u.imem.route(), u.dmem.route()
		cs.core, cs.icu = u.Core.Snapshot()
		cs.started = u.started
	}
	return st
}

// Restore rewinds the SoC to a snapshot: an internal Reset back to the
// sealed baseline, then the snapshot's deltas and component states overlaid
// on top. Attachments (planes, observers, coverage, recorder) are left as
// they are, and restored cores resume without going through Start — the
// stepping list is rebuilt from the snapshot's started flags. After Restore
// the SoC is bit-identical, in everything that can affect execution, to the
// SoC the snapshot was taken from at that cycle.
func (s *SoC) Restore(st *State) {
	s.Reset()
	if len(st.replay) != len(s.replayers) {
		panic(fmt.Sprintf("soc: snapshot has %d replayers, SoC has %d",
			len(st.replay), len(s.replayers)))
	}
	s.cycle = st.cycle
	s.Bus.Restore(st.bus)
	for i, r := range s.replayers {
		r.Seek(st.replay[i])
	}
	s.SRAM.ApplyDelta(st.sram)
	for id, u := range s.Cores {
		cs := &st.cores[id]
		u.ITCM.ApplyDelta(cs.itcm)
		u.DTCM.ApplyDelta(cs.dtcm)
		if u.ICache != nil {
			u.ICache.Restore(cs.icache)
			u.DCache.Restore(cs.dcache)
		}
		for i, c := range u.tcms {
			c.TCMState = cs.tcms[i]
		}
		for i, c := range u.ctrls {
			c.CtrlState = cs.ctrls[i]
		}
		for i, c := range u.bypasses {
			c.BypassState = cs.bypasses[i]
		}
		u.imem.reroute(cs.imem)
		u.dmem.reroute(cs.dmem)
		u.Core.Restore(cs.core, cs.icu)
		u.started = cs.started
	}
	s.listRunning()
}
