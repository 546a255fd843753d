package soc

import (
	"fmt"

	"repro/internal/archint"
	"repro/internal/asm"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coverage"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/mem"
)

// NumCores is the core count of the modelled device.
const NumCores = 3

// DefaultFlashBankLatencies gives the flash wait states per 256 KiB bank;
// the paper reports 8 cycles per issue-packet fetch, with the "code
// position" scenario knob exposing small bank-to-bank differences.
func DefaultFlashBankLatencies() []int { return []int{8, 9, 10, 9} }

// Code placement bases used by the Table II scenarios.
const (
	CodeLow  = 0x0000_1000
	CodeMid  = 0x0004_0000 // bank 1: one extra wait state
	CodeHigh = 0x000A_0000 // bank 2: two extra wait states
)

// CoreSetup configures one core slot.
type CoreSetup struct {
	CPU        cpu.Config
	Active     bool
	CachesOn   bool        // private I/D caches enabled
	WriteAlloc bool        // D-cache write-allocate (paper's setting: true)
	Plane      fault.Plane // nil = fault-free
	StartDelay int         // cycles to hold the core in reset (start phase)
}

// Config configures the SoC.
type Config struct {
	Arbitration bus.Arbitration
	FlashBanks  []int // per-bank latencies; nil = DefaultFlashBankLatencies
	SRAMLatency int   // 0 = default (2)
	Cores       [NumCores]CoreSetup
	// Replay attaches background bus traffic (recorded from a full run)
	// to dedicated replay masters, one per recorded source master; used by
	// the fault simulator so that a single simulated core experiences
	// three-core bus contention without simulating the other cores.
	Replay [][]bus.TrafficEvent
}

// DefaultConfig returns a triple-core configuration with all cores active
// and caches off (the paper's baseline).
func DefaultConfig() Config {
	var cfg Config
	cfg.Cores[0] = CoreSetup{CPU: cpu.CoreA(), Active: true}
	cfg.Cores[1] = CoreSetup{CPU: cpu.CoreB(), Active: true}
	cfg.Cores[2] = CoreSetup{CPU: cpu.CoreC(), Active: true}
	return cfg
}

// CoreUnit is one assembled core with its private memories.
type CoreUnit struct {
	Core   *cpu.Core
	ICache *cache.Cache // nil when caches disabled
	DCache *cache.Cache
	ITCM   *mem.RAM
	DTCM   *mem.RAM

	setup CoreSetup
	imem  *router
	dmem  *router
	// Every memory client the routers dispatch to, by type: Reset and the
	// snapshots go through these lists.
	tcms     []*cache.TCMClient
	ctrls    []*cache.Ctrl
	bypasses []*cache.Bypass
	started  bool

	// _ fills CoreUnit out to whole 64-byte host cache lines (192
	// bytes); see soc.TestHotStateOwnsCacheLines.
	_ [15]byte
}

// SoC is the assembled system.
type SoC struct {
	Bus   *bus.Bus
	Flash *mem.Flash
	SRAM  *mem.RAM
	Cores [NumCores]*CoreUnit

	replayers []*bus.Replayer
	running   []*CoreUnit // active started cores, in core-ID order
	live      int         // running cores not yet done; Step, Start and Restore count them
	cycle     int64

	// base is the sealed image Reset restores (nil until SealBaseline).
	base *Image

	// skipped counts the cycles Advance skipped over the SoC's life; Reset
	// and Restore keep it. With it the SoC fills exactly two 64-byte host
	// cache lines (128 bytes); see soc.TestHotStateOwnsCacheLines.
	skipped int64
}

// Image is a loaded SoC's read-only memory content: the flash with its
// programs and the sealed SRAM and TCM baselines Reset restores. Nothing
// writes an Image once SealBaseline has taken it — the bus cannot write
// flash (mem.Flash.Write ignores stores), and a RAM copies a baseline
// page into a page of its own before its first write to it — so any
// number of SoCs, stepped on any goroutines, may share one (see
// NewFromImage). The baselines hold only the pages written before the
// seal: the loaded pattern tables, a few KiB.
type Image struct {
	// Flash is the programmed code flash.
	Flash *mem.Flash
	// SRAM is the sealed SRAM baseline.
	SRAM *mem.Baseline
	// TCM is each core's sealed ITCM and DTCM baseline, in that order.
	TCM [NumCores][2]*mem.Baseline
}

// Masters per core: instruction port then data port; replay masters at the
// end (one per non-tested core port).
func imemMaster(coreID int) int { return coreID * 2 }
func dmemMaster(coreID int) int { return coreID*2 + 1 }

const (
	replayMasterBase = NumCores * 2
	numReplayMasters = 4 // two cores' worth of (ifetch, data) ports
)

// New assembles an SoC.
func New(cfg Config) *SoC { return build(cfg, nil) }

// NewFromImage assembles an SoC over cfg that shares img read-only: the
// flash is img's, the writable memories read as img's baselines until
// written, and Reset restores those; no memory contents are copied. The
// result runs exactly like the SoC img was sealed on — built from the
// same cfg, with the same programs loaded — after a Reset, without
// reassembling or reloading anything. cfg must be the configuration that
// SoC was built with.
func NewFromImage(cfg Config, img *Image) *SoC { return build(cfg, img) }

// build assembles an SoC, over img's memories when img is non-nil.
func build(cfg Config, img *Image) *SoC {
	sramLat := cfg.SRAMLatency
	if sramLat == 0 {
		sramLat = 2
	}
	var flash *mem.Flash
	var sram *mem.RAM
	if img != nil {
		flash = img.Flash
		sram = mem.NewRAMFrom(img.SRAM, sramLat)
	} else {
		banks := cfg.FlashBanks
		if banks == nil {
			banks = DefaultFlashBankLatencies()
		}
		flash = mem.NewFlash(mem.FlashSize, banks)
		sram = mem.NewRAM(mem.SRAMSize, sramLat)
	}
	b := bus.New(replayMasterBase+numReplayMasters, cfg.Arbitration, []bus.Region{
		{Base: mem.FlashBase, Size: mem.FlashSize, Dev: flash},
		{Base: mem.SRAMBase, Size: mem.SRAMSize, Dev: sram},
		// Uncached alias of the same SRAM, used for cross-core flags.
		{Base: mem.SRAMUncachedBase, Size: mem.SRAMSize, Dev: sram},
	})
	s := &SoC{Bus: b, Flash: flash, SRAM: sram, base: img}
	for id := 0; id < NumCores; id++ {
		var tcm [2]*mem.Baseline
		if img != nil {
			tcm = img.TCM[id]
		}
		s.Cores[id] = buildCore(id, cfg.Cores[id], b, tcm)
	}
	if len(cfg.Replay) > numReplayMasters {
		panic(fmt.Sprintf("soc: %d replay traces, max %d", len(cfg.Replay), numReplayMasters))
	}
	for i, trace := range cfg.Replay {
		s.replayers = append(s.replayers,
			bus.NewReplayer(b.PortFor(replayMasterBase+i), trace))
	}
	return s
}

// buildCore assembles core id's unit; tcm holds its ITCM and DTCM
// baselines, or nils for zeroed TCMs.
func buildCore(id int, setup CoreSetup, b *bus.Bus, tcm [2]*mem.Baseline) *CoreUnit {
	newTCM := func(base *mem.Baseline) *mem.RAM {
		if base == nil {
			return mem.NewTCM(mem.TCMSize)
		}
		return mem.NewRAMFrom(base, 1)
	}
	u := &CoreUnit{
		ITCM:  newTCM(tcm[0]),
		DTCM:  newTCM(tcm[1]),
		setup: setup,
	}
	setup.CPU.CoreID = id

	iport := b.PortFor(imemMaster(id))
	dport := b.PortFor(dmemMaster(id))
	tcmClient := func(dev *mem.RAM, base uint32) *cache.TCMClient {
		c := cache.NewTCMClient(dev, base)
		u.tcms = append(u.tcms, c)
		return c
	}
	bypass := func(port *bus.Port, lineBuffer bool) *cache.Bypass {
		c := cache.NewBypass(port, lineBuffer)
		u.bypasses = append(u.bypasses, c)
		return c
	}

	var ifAccess, dAccess cache.Client
	if setup.CachesOn {
		u.ICache = cache.New(cache.ICacheConfig())
		u.DCache = cache.New(cache.DCacheConfig(setup.WriteAlloc))
		u.ctrls = []*cache.Ctrl{cache.NewCtrl(u.ICache, iport), cache.NewCtrl(u.DCache, dport)}
		ifAccess, dAccess = u.ctrls[0], u.ctrls[1]
	} else {
		// The fetch-side bypass keeps a one-line prefetch buffer: pairs
		// inside a flash line can still dual-issue without caches.
		ifAccess = bypass(iport, true)
		dAccess = bypass(dport, false)
	}

	u.imem = &router{
		tcm:     tcmClient(u.ITCM, mem.ITCMFor(id)),
		tcmBase: mem.ITCMFor(id),
		tcmSize: mem.TCMSize,
		def:     ifAccess,
	}
	u.dmem = &router{
		tcm:      tcmClient(u.DTCM, mem.DTCMFor(id)),
		tcmBase:  mem.DTCMFor(id),
		tcmSize:  mem.TCMSize,
		tcm2:     tcmClient(u.ITCM, mem.ITCMFor(id)),
		tcm2Base: mem.ITCMFor(id),
		uncached: bypass(dport, false),
		def:      dAccess,
	}
	if !setup.CachesOn {
		// Flash is read-only, so a data-side line buffer is coherence-safe;
		// it gives software copy loops (the TCM-based strategy) the same
		// line-wide flash bursts the fetch unit enjoys. With the D-cache
		// enabled, flash data reads stay on the cached path instead.
		u.dmem.flash = bypass(dport, true)
	}
	// The data-side uncached alias and the cached path share one bus port;
	// the router guarantees only one is in flight at a time.

	invalidate := func(sel int32) {
		if sel&1 != 0 && u.ICache != nil {
			u.ICache.InvalidateAll()
		}
		if sel&2 != 0 && u.DCache != nil {
			u.DCache.InvalidateAll()
		}
	}
	u.Core = cpu.New(setup.CPU, u.imem, u.dmem, invalidate, setup.Plane)
	return u
}

// Load programs the flash with an assembled image. Programs load before
// SealBaseline: the sealed flash may be shared (see NewFromImage).
func (s *SoC) Load(p *asm.Program) error {
	if s.base != nil {
		return fmt.Errorf("soc: Load after SealBaseline")
	}
	if p.Base >= mem.FlashSize {
		return fmt.Errorf("soc: program base %#x outside flash", p.Base)
	}
	return s.Flash.LoadWords(p.Base, p.Words)
}

// Start resets core id and points it at entry. Inactive cores stay off.
func (s *SoC) Start(id int, entry uint32) {
	u := s.Cores[id]
	u.Core.Reset(entry)
	u.started = true
	s.listRunning()
}

// listRunning rebuilds the stepping list: the started, active cores in
// core-ID order, whatever order they were started or restored in.
func (s *SoC) listRunning() {
	s.running = s.running[:0]
	s.live = 0
	for _, u := range s.Cores {
		if u.started && u.setup.Active {
			s.running = append(s.running, u)
			if !u.Core.Done() {
				s.live++
			}
		}
	}
}

// Cycle returns the global cycle count.
func (s *SoC) Cycle() int64 { return s.cycle }

// SealBaseline freezes the current SRAM and TCM contents as the state
// Reset restores. Call it once after loading programs and pattern tables;
// every later Reset rewinds the SoC to this point instead of power-on zero.
// The pages written so far become the image's (mem.RAM.Seal), so sealing
// copies nothing.
func (s *SoC) SealBaseline() {
	img := &Image{Flash: s.Flash, SRAM: s.SRAM.Seal()}
	for id, u := range s.Cores {
		img.TCM[id] = [2]*mem.Baseline{u.ITCM.Seal(), u.DTCM.Seal()}
	}
	s.base = img
}

// Image returns the sealed image (nil before SealBaseline), for
// NewFromImage.
func (s *SoC) Image() *Image { return s.base }

// Reset rewinds the whole SoC for another run on the same hardware: cycle
// counters, bus and replayer state, cache contents and statistics, memory
// clients, RAM/TCM data (restored to the sealed baseline, or zeroed when no
// baseline was sealed) and per-core architectural state. The flash image,
// bus topology and wiring survive, so a reset SoC behaves exactly like a
// freshly built one with the same program loaded — without reallocating
// anything.
func (s *SoC) Reset() {
	s.cycle = 0
	s.running = s.running[:0]
	s.live = 0
	s.Bus.Reset()
	for _, r := range s.replayers {
		r.Reset()
	}
	s.SRAM.Reset()
	for _, u := range s.Cores {
		u.ITCM.Reset()
		u.DTCM.Reset()
		if u.ICache != nil {
			u.ICache.Reset()
		}
		if u.DCache != nil {
			u.DCache.Reset()
		}
		// Clients before the core: Core.Reset retracts in-flight fetches
		// through the (already idle) instruction-side client.
		for _, c := range u.tcms {
			c.Reset()
		}
		for _, c := range u.ctrls {
			c.Reset()
		}
		for _, c := range u.bypasses {
			c.Reset()
		}
		u.imem.cur, u.dmem.cur = nil, nil
		u.Core.Reset(0)
		u.started = false
	}
}

// SetPlane swaps core id's fault-injection plane (nil restores fault-free).
func (s *SoC) SetPlane(id int, p fault.Plane) { s.Cores[id].Core.SetPlane(p) }

// SetInjector attaches an interrupt-plan injector to core id (nil
// detaches): the pipeline half of the architectural interrupt subsystem —
// the same archint.Plan the functional reference recognises is driven
// into this core's ICU, retire-indexed. The attachment survives Reset.
func (s *SoC) SetInjector(id int, in *archint.Injector) { s.Cores[id].Core.SetInjector(in) }

// SetCoverage attaches one coverage map to every instrumented component of
// the system — all cores, their private caches, and the shared bus — so a
// run's microarchitectural coverage lands in a single map (nil detaches).
// The attachment survives Reset; the SoC must be stepped from a single
// goroutine for the shared map to be safe, which Step already requires.
func (s *SoC) SetCoverage(m *coverage.Map) {
	s.Bus.SetCoverage(m)
	for _, u := range s.Cores {
		u.Core.SetCoverage(m)
		if u.ICache != nil {
			u.ICache.SetCoverage(m, coverage.RoleICache)
		}
		if u.DCache != nil {
			u.DCache.SetCoverage(m, coverage.RoleDCache)
		}
		// TCM traffic: instruction fetches from the ITCM, the data-side
		// ITCM window (the TCM strategy's boot copy loop) and DTCM data.
		u.imem.tcm.SetCoverage(m, coverage.FeatTCMFetch, coverage.FeatTCMStageCode)
		u.dmem.tcm.SetCoverage(m, coverage.FeatTCMDataRead, coverage.FeatTCMDataWrite)
		u.dmem.tcm2.SetCoverage(m, coverage.FeatTCMStageCode, coverage.FeatTCMStageCode)
		// The uncached data-side alias carries the scheduler barrier's
		// completion flags.
		u.dmem.uncached.SetCoverage(m)
	}
}

// Done reports whether every active started core has halted and drained.
// Step counts the cores that are not, so asking costs no walk over them.
func (s *SoC) Done() bool { return s.live == 0 }

// Step advances the whole system one clock cycle. It is the one-cycle
// primitive Advance ends with; Run and the campaign engine advance a SoC
// through Advance.
func (s *SoC) Step() {
	s.cycle++
	s.Bus.Step()
	for _, r := range s.replayers {
		r.Step(s.Bus.Cycle())
	}
	live := 0
	for _, u := range s.running {
		// A core held in reset has not run, so it is not done.
		if s.cycle <= int64(u.setup.StartDelay) || !u.Core.Step() {
			live++
		}
	}
	s.live = live
}

// Result summarises a run.
type Result struct {
	Cycles   int64
	TimedOut bool
}

// Advance advances the SoC at least one cycle and at most to cycle limit.
// Before its one Step it skips, at once, every cycle in which no
// component would do more than count (a quiet window; see "soc quiet
// cycles" in docs/ARCHITECTURE.md), applying what those Steps would have
// changed: the cycle counts, the cores' cycle and stall counters, the
// latch rotation of an IF stall, the ICU countdown, and the bus's busy
// and per-master statistics. The result is the SoC that Steps to the
// same cycle would leave. A cycle is quiet when each running core is done or
// waits on a bus transfer (cpu.Core.Quiet), the bus counts down a
// transfer or is idle with nothing queued (bus.Bus.Quiet), and each
// replayer is idle before its next event or waits on its transfer
// (bus.Replayer.QuietUntil). Nothing is skipped while a core is held in
// reset, or while a tracer, coverage map, interrupt injector or a plane
// hooking counter increments or event lines watches a core's cycles.
func (s *SoC) Advance(limit int64) {
	if s.stalled() {
		s.skip(limit - s.cycle - 1)
	}
	s.Step()
}

// stalled reports whether every running core's last Step left its stall
// flag set (cpu.Core.Stalled), the only state after which the next cycle
// can be quiet. A core held in reset has not stepped since its Reset, so
// it keeps the window shut.
func (s *SoC) stalled() bool {
	for _, u := range s.running {
		if !u.Core.Stalled() {
			return false
		}
	}
	return true
}

// skip skips the quiet cycles ahead, at most max: the fewest any
// component allows, the bus and replayers asked first, as they are the
// cheapest to ask.
func (s *SoC) skip(max int64) {
	n := min(max, s.Bus.Quiet())
	for _, r := range s.replayers {
		n = min(n, r.QuietUntil()-s.cycle-1)
	}
	for _, u := range s.running {
		if n <= 0 {
			return
		}
		n = min(n, u.Core.Quiet())
	}
	if n <= 0 {
		return
	}
	s.cycle += n
	s.skipped += n
	s.Bus.Skip(n)
	for _, u := range s.running {
		u.Core.Skip(n)
	}
}

// SkippedCycles returns how many cycles Advance has skipped since the SoC
// was built, across Reset and Restore.
func (s *SoC) SkippedCycles() int64 { return s.skipped }

// Run advances until every active started core is done (halted and
// drained) or maxCycles elapse.
func (s *SoC) Run(maxCycles int64) Result {
	start := s.cycle
	for s.cycle-start < maxCycles {
		if s.Done() {
			return Result{Cycles: s.cycle - start}
		}
		s.Advance(start + maxCycles)
	}
	return Result{Cycles: s.cycle - start, TimedOut: !s.Done()}
}

// AttachRecorder installs a bus-traffic recorder that captures the
// transactions of every core except exceptID (pass -1 to record them all).
// The returned recorder's EventsByMaster output feeds Config.Replay.
func (s *SoC) AttachRecorder(exceptID int) *bus.Recorder {
	var masters []int
	for id := 0; id < NumCores; id++ {
		if id == exceptID {
			continue
		}
		masters = append(masters, imemMaster(id), dmemMaster(id))
	}
	rec := bus.NewRecorder(masters...)
	s.Bus.Attach(rec)
	return rec
}

// router dispatches memory accesses by address region: the core-private
// TCMs bypass the bus entirely; accesses to the uncached SRAM alias bypass
// the cache; everything else goes to the default path (cache controller or
// uncached bus client). It calls the client of the access in flight
// through the cache.Client interface: a switch over the three concrete
// client types in its place saved no self time in traced profiles.
type router struct {
	tcm      *cache.TCMClient
	tcmBase  uint32
	tcmSize  uint32
	tcm2     *cache.TCMClient // data-side view of the ITCM (for TCM copy loops)
	tcm2Base uint32
	uncached *cache.Bypass // SRAM uncached-alias path (data side only)
	flash    *cache.Bypass // read-only flash window, line-buffered (data side)
	def      cache.Client

	cur cache.Client

	// _ fills router out to whole 64-byte host cache lines (128
	// bytes); see soc.TestHotStateOwnsCacheLines.
	_ [48]byte
}

func (r *router) pick(addr uint32, write bool) cache.Client {
	if addr >= r.tcmBase && addr < r.tcmBase+r.tcmSize {
		return r.tcm
	}
	if r.tcm2 != nil && addr >= r.tcm2Base && addr < r.tcm2Base+mem.TCMSize {
		return r.tcm2
	}
	if r.uncached != nil && addr >= mem.SRAMUncachedBase &&
		addr < mem.SRAMUncachedBase+mem.SRAMSize {
		return r.uncached
	}
	if r.flash != nil && !write && addr < mem.FlashBase+mem.FlashSize {
		return r.flash
	}
	return r.def
}

func (r *router) Busy() bool { return r.cur != nil && r.cur.Busy() }

func (r *router) Waiting() bool { return r.cur != nil && r.cur.Waiting() }

func (r *router) Start(addr uint32, write bool, wdata uint64, size int) {
	r.cur = r.pick(addr, write)
	r.cur.Start(addr, write, wdata, size)
}

func (r *router) Tick() (bool, uint64) {
	done, v := r.cur.Tick()
	if done {
		r.cur = nil
	}
	return done, v
}

func (r *router) TryAbort() bool {
	if r.cur == nil {
		return true
	}
	if r.cur.TryAbort() {
		r.cur = nil
		return true
	}
	return false
}

var _ cache.Client = (*router)(nil)
