package soc

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cpu"
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
	imem, dmem     routerState
	core           *cpu.CoreState
	started        bool
}

// routerState snapshots one memory router: the in-flight state of each
// routed client (positional, in the router's fixed client order) plus which
// client the current access is routed to (-1 = none).
type routerState struct {
	cur     int8
	clients [5]cache.ClientState
}

// clientList returns the routed clients in their fixed positional order;
// entries are nil for paths the router does not have.
func (r *router) clientList() [5]cache.Client {
	return [5]cache.Client{r.tcm, r.tcm2, r.uncached, r.flash, r.def}
}

func (r *router) save(st *routerState) {
	st.cur = -1
	for i, c := range r.clientList() {
		if c == nil {
			continue
		}
		st.clients[i] = c.(cache.Stateful).Save()
		if c == r.cur {
			st.cur = int8(i)
		}
	}
}

func (r *router) load(st *routerState) {
	r.cur = nil
	for i, c := range r.clientList() {
		if c == nil {
			continue
		}
		c.(cache.Stateful).Load(st.clients[i])
		if int8(i) == st.cur {
			r.cur = c
		}
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
		u.imem.save(&cs.imem)
		u.dmem.save(&cs.dmem)
		cs.core = u.Core.Snapshot()
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
		u.imem.load(&cs.imem)
		u.dmem.load(&cs.dmem)
		u.Core.Restore(cs.core)
		u.started = cs.started
	}
	s.listRunning()
}
