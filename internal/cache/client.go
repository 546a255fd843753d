package cache

import (
	"repro/internal/bus"
	"repro/internal/coverage"
	"repro/internal/mem"
)

// Client is a per-cycle memory agent the CPU pipeline drives. Protocol:
// call Start then Tick in the same simulator cycle; if Tick reports done the
// access took one cycle (a hit / TCM access). Otherwise the pipeline stalls
// and calls Tick once per subsequent cycle until done. Accesses are
// naturally aligned to their size by the client (hardware truncates low
// address bits), which keeps faulty address computations from wedging the
// model. In a SoC the core drives a soc.router, which calls the client of
// each access through this interface as well; a switch over the three
// concrete clients below measured no faster (see soc.router).
//
// The clients below keep everything that changes at run time in one
// embedded state value (CtrlState, BypassState, TCMState): its Reset
// returns the client to power-on idle, and a copy of it is a complete
// checkpoint of the client. Neither covers the bus request a busy client
// has outstanding, which lives in the bus's request slot (bus.State).
type Client interface {
	Busy() bool
	Start(addr uint32, write bool, wdata uint64, size int)
	Tick() (done bool, rdata uint64)
	// TryAbort attempts to retract the in-flight access (used by the fetch
	// unit on control-flow redirects). It returns true when the access is
	// gone — either it never reached the bus or its request was still
	// queued and could be cancelled. It returns false when the transfer is
	// already in service; the caller must then keep Ticking until done and
	// discard the result.
	TryAbort() bool
	// Waiting reports that the next Tick returns false, and changes
	// nothing, until the bus completes the client's outstanding request:
	// the access is a bus transfer queued or in service. A cycle-skipping
	// caller (soc.SoC.Advance) may then leave the Ticks of the cycles
	// before that completion out. A TCM access is never waiting.
	Waiting() bool
}

func alignTo(addr uint32, size int) uint32 { return addr &^ uint32(size-1) }

// ctrlState is the cache controller's refill state machine. The states
// from ctrlWB on have a bus request outstanding (Waiting).
type ctrlState uint8

const (
	ctrlIdle ctrlState = iota
	ctrlHitDone
	ctrlWB     // victim write-back in flight
	ctrlRefill // line read in flight
	ctrlWT     // no-write-allocate write-through in flight
)

// Ctrl gives a Cache its timing behaviour against the shared bus.
type Ctrl struct {
	cache *Cache
	port  *bus.Port
	CtrlState

	// _ fills Ctrl out to whole 64-byte host cache lines (64
	// bytes); see soc.TestHotStateOwnsCacheLines.
	_ [8]byte
}

// CtrlState is a Ctrl's dynamic state: its refill state machine and the
// access it serves. The tag/data array is the Cache's, and the bus request
// a busy controller has outstanding lives in the bus's request slot.
type CtrlState struct {
	state ctrlState
	addr  uint32
	write bool
	wdata uint64
	size  int
	rdata uint64
}

// Reset returns the controller to power-on idle.
func (s *CtrlState) Reset() { *s = CtrlState{} }

// NewCtrl wraps cache with a controller mastering the given bus port.
func NewCtrl(c *Cache, port *bus.Port) *Ctrl { return &Ctrl{cache: c, port: port} }

// Cache exposes the underlying tag/data array (for CINV and statistics).
func (c *Ctrl) Cache() *Cache { return c.cache }

// Busy reports whether an access is in flight.
func (c *Ctrl) Busy() bool { return c.state != ctrlIdle }

// Waiting implements Client: a write-back, refill or write-through whose
// bus request has not completed. Once the write-back completes, the Tick
// that sees it issues the refill; that is the completion's cycle.
func (c *Ctrl) Waiting() bool { return c.state >= ctrlWB && !c.port.Done() }

// Start begins an access. The controller must be idle.
func (c *Ctrl) Start(addr uint32, write bool, wdata uint64, size int) {
	if c.state != ctrlIdle {
		panic("cache: Start on busy controller")
	}
	addr = alignTo(addr, size)
	c.addr, c.write, c.wdata, c.size = addr, write, wdata, size

	if write {
		if c.cache.Write(addr, wdata, size) {
			c.state = ctrlHitDone
			return
		}
		if !c.cache.Config().WriteAlloc {
			// Write around: send the store to memory, do not allocate.
			c.cache.cover(coverage.CacheWriteAround)
			var buf [8]byte
			writeLE(buf[:], wdata, size)
			c.port.StartWrite(addr, buf[:size])
			c.state = ctrlWT
			return
		}
	} else {
		if v, hit := c.cache.Read(addr, size); hit {
			c.rdata = v
			c.state = ctrlHitDone
			return
		}
	}
	c.beginRefill()
}

func (c *Ctrl) beginRefill() {
	lineAddr := mem.LineAddr(c.addr)
	_, wbAddr, wbData, needWB := c.cache.Victim(lineAddr)
	if needWB {
		c.port.StartWrite(wbAddr, wbData)
		c.state = ctrlWB
		return
	}
	c.port.StartRead(lineAddr, c.cache.Config().LineBytes)
	c.state = ctrlRefill
}

// Tick advances the access one cycle.
func (c *Ctrl) Tick() (bool, uint64) {
	switch c.state {
	case ctrlIdle:
		panic("cache: Tick while idle")
	case ctrlHitDone:
		c.state = ctrlIdle
		return true, c.rdata
	case ctrlWB:
		if !c.port.Done() {
			return false, 0
		}
		c.port.Take()
		lineAddr := mem.LineAddr(c.addr)
		c.port.StartRead(lineAddr, c.cache.Config().LineBytes)
		c.state = ctrlRefill
		return false, 0
	case ctrlRefill:
		if !c.port.Done() {
			return false, 0
		}
		data := c.port.Take()
		lineAddr := mem.LineAddr(c.addr)
		way, _, _, _ := c.cache.Victim(lineAddr)
		c.cache.Fill(lineAddr, way, data)
		if c.write {
			c.cache.writeAt(c.addr, c.wdata, c.size)
			c.state = ctrlIdle
			return true, 0
		}
		v := c.cache.readAt(c.addr, c.size)
		c.state = ctrlIdle
		return true, v
	case ctrlWT:
		if !c.port.Done() {
			return false, 0
		}
		c.port.Take()
		c.state = ctrlIdle
		return true, 0
	}
	return false, 0
}

// TryAbort implements Client. A hit that has not been consumed is dropped;
// a queued bus request is cancelled; an in-service transfer (and the
// write-back leg of an eviction, whose read must still follow to keep the
// cache consistent) cannot be retracted.
func (c *Ctrl) TryAbort() bool {
	switch c.state {
	case ctrlIdle:
		return true
	case ctrlHitDone:
		c.state = ctrlIdle
		return true
	case ctrlRefill, ctrlWT:
		if c.port.InService() || c.port.Done() {
			return false
		}
		c.port.Cancel()
		c.state = ctrlIdle
		return true
	case ctrlWB:
		// The victim was already chosen; cancelling mid-sequence would
		// need extra bookkeeping for no modelling benefit.
		return false
	}
	return false
}

// Bypass is an uncached bus client. With LineBuffer enabled it keeps the
// last line read and serves reads within it in a single cycle — this models
// the line-wide flash prefetch buffer of the fetch unit, which is what lets
// instruction pairs inside one flash line still issue back-to-back when the
// caches are disabled.
type Bypass struct {
	port       *bus.Port
	lineBuffer bool
	BypassState

	// cov collects barrier flag-line coverage when attached (the uncached
	// data-side alias client is where the scheduler's completion protocol
	// becomes observable); nil is the zero-cost disabled mode.
	cov *coverage.Map

	// _ fills Bypass out to whole 64-byte host cache lines (128
	// bytes); see soc.TestHotStateOwnsCacheLines.
	_ [56]byte
}

// BypassState is a Bypass's dynamic state: the prefetch line buffer and
// the access in flight.
type BypassState struct {
	bufValid bool
	bufAddr  uint32
	buf      [mem.LineBytes]byte

	state ctrlState // reuses ctrlIdle / ctrlRefill / ctrlWT / ctrlHitDone
	addr  uint32
	size  int
	write bool
}

// Reset drops the prefetch buffer and the access in flight.
func (s *BypassState) Reset() { *s = BypassState{} }

// NewBypass builds an uncached client on port. lineBuffer enables the
// single-line prefetch buffer (used for instruction fetch).
func NewBypass(port *bus.Port, lineBuffer bool) *Bypass {
	return &Bypass{port: port, lineBuffer: lineBuffer}
}

// SetCoverage attaches a coverage map recording barrier flag-line accesses
// (nil detaches). The attachment survives Reset.
func (b *Bypass) SetCoverage(m *coverage.Map) { b.cov = m }

// inFlagLine reports whether addr falls in the reserved barrier flag line.
func inFlagLine(addr uint32) bool {
	return addr >= mem.BarrierFlagBase && addr < mem.SRAMUncachedBase+mem.SRAMSize
}

// coverFlagRead classifies a completed flag-line read: a zero flag is a
// spinning poll (the peer is still testing), non-zero is the release.
func (b *Bypass) coverFlagRead(v uint64) {
	if b.cov == nil || b.write || !inFlagLine(b.addr) {
		return
	}
	if v == 0 {
		b.cov.Inc(coverage.FeatBarrierSpin)
	} else {
		b.cov.Inc(coverage.FeatBarrierRelease)
	}
}

// Busy reports whether an access is in flight.
func (b *Bypass) Busy() bool { return b.state != ctrlIdle }

// Waiting implements Client: a read or write whose bus request has not
// completed.
func (b *Bypass) Waiting() bool { return b.state >= ctrlWB && !b.port.Done() }

// Start begins an access.
func (b *Bypass) Start(addr uint32, write bool, wdata uint64, size int) {
	if b.state != ctrlIdle {
		panic("cache: Start on busy bypass")
	}
	addr = alignTo(addr, size)
	b.addr, b.size, b.write = addr, size, write
	if write {
		if b.bufValid && mem.LineAddr(addr) == b.bufAddr {
			b.bufValid = false
		}
		if b.cov != nil && inFlagLine(addr) {
			b.cov.Inc(coverage.FeatBarrierPublish)
		}
		var buf [8]byte
		writeLE(buf[:], wdata, size)
		b.port.StartWrite(addr, buf[:size])
		b.state = ctrlWT
		return
	}
	if b.lineBuffer {
		if b.bufValid && mem.LineAddr(addr) == b.bufAddr {
			b.state = ctrlHitDone
			return
		}
		b.port.StartRead(mem.LineAddr(addr), mem.LineBytes)
		b.state = ctrlRefill
		return
	}
	b.port.StartRead(addr, size)
	b.state = ctrlRefill
}

// Tick advances the access one cycle.
func (b *Bypass) Tick() (bool, uint64) {
	switch b.state {
	case ctrlIdle:
		panic("cache: Tick while idle")
	case ctrlHitDone:
		b.state = ctrlIdle
		off := b.addr - b.bufAddr
		return true, readLE(b.buf[off:], b.size)
	case ctrlRefill:
		if !b.port.Done() {
			return false, 0
		}
		data := b.port.Take()
		b.state = ctrlIdle
		if b.lineBuffer {
			b.bufAddr = mem.LineAddr(b.addr)
			copy(b.buf[:], data)
			b.bufValid = true
			off := b.addr - b.bufAddr
			return true, readLE(b.buf[off:], b.size)
		}
		v := readLE(data, b.size)
		b.coverFlagRead(v)
		return true, v
	case ctrlWT:
		if !b.port.Done() {
			return false, 0
		}
		b.port.Take()
		b.state = ctrlIdle
		return true, 0
	}
	return false, 0
}

// TryAbort implements Client.
func (b *Bypass) TryAbort() bool {
	switch b.state {
	case ctrlIdle:
		return true
	case ctrlHitDone:
		b.state = ctrlIdle
		return true
	case ctrlRefill, ctrlWT:
		if b.port.InService() || b.port.Done() {
			return false
		}
		b.port.Cancel()
		b.state = ctrlIdle
		return true
	}
	return false
}

// TCMClient serves a core-private tightly-coupled memory in a single cycle
// without touching the bus.
type TCMClient struct {
	dev  *mem.RAM
	base uint32
	TCMState

	// cov/readFeat/writeFeat record TCM traffic coverage when attached —
	// the copy-loop states of the TCM-based wrapping strategy.
	cov       *coverage.Map
	readFeat  coverage.Feature
	writeFeat coverage.Feature
}

// TCMState is a TCMClient's dynamic state: the access between Start and
// its Tick.
type TCMState struct {
	pending bool
	addr    uint32
	write   bool
	wdata   uint64
	size    int
}

// Reset returns the client to power-on idle.
func (s *TCMState) Reset() { *s = TCMState{} }

// NewTCMClient builds a client for dev mapped at base.
func NewTCMClient(dev *mem.RAM, base uint32) *TCMClient {
	return &TCMClient{dev: dev, base: base}
}

// SetCoverage attaches a coverage map with the features to record for reads
// and writes through this client (nil detaches); survives Reset.
func (t *TCMClient) SetCoverage(m *coverage.Map, readFeat, writeFeat coverage.Feature) {
	t.cov = m
	t.readFeat = readFeat
	t.writeFeat = writeFeat
}

// Busy reports whether an access is in flight (never across cycles).
func (t *TCMClient) Busy() bool { return t.pending }

// Waiting implements Client: a TCM access never waits on the bus.
func (t *TCMClient) Waiting() bool { return false }

// Start begins an access; it completes on the same cycle's Tick.
func (t *TCMClient) Start(addr uint32, write bool, wdata uint64, size int) {
	if t.pending {
		panic("cache: Start on busy TCM client")
	}
	t.addr = alignTo(addr, size) - t.base
	t.write, t.wdata, t.size = write, wdata, size
	t.pending = true
	if t.cov != nil {
		if write {
			t.cov.Inc(t.writeFeat)
		} else {
			t.cov.Inc(t.readFeat)
		}
	}
}

// Tick completes the access.
func (t *TCMClient) Tick() (bool, uint64) {
	if !t.pending {
		panic("cache: Tick while idle")
	}
	t.pending = false
	if t.addr+uint32(t.size) > t.dev.Size() {
		return true, 0xFFFFFFFFFFFFFFFF // off the end: open bus
	}
	var buf [8]byte
	if t.write {
		writeLE(buf[:], t.wdata, t.size)
		t.dev.Write(t.addr, buf[:t.size])
		return true, 0
	}
	t.dev.Read(t.addr, buf[:t.size])
	return true, readLE(buf[:], t.size)
}

// TryAbort implements Client: a TCM access never reaches the bus.
func (t *TCMClient) TryAbort() bool {
	t.pending = false
	return true
}

// Interface conformance checks.
var (
	_ Client = (*Ctrl)(nil)
	_ Client = (*Bypass)(nil)
	_ Client = (*TCMClient)(nil)
)
