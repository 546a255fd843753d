package cache

import (
	"encoding/binary"
	"fmt"

	"repro/internal/coverage"
	"repro/internal/mem"
)

// Config describes cache geometry and policy.
type Config struct {
	SizeBytes  int
	Ways       int
	LineBytes  int
	WriteAlloc bool // true: write-allocate (paper's experimental setting)
}

// ICacheConfig returns the paper's 8 kB instruction-cache geometry.
func ICacheConfig() Config {
	return Config{SizeBytes: 8 << 10, Ways: 2, LineBytes: mem.LineBytes, WriteAlloc: true}
}

// DCacheConfig returns the paper's 4 kB data-cache geometry.
func DCacheConfig(writeAlloc bool) Config {
	return Config{SizeBytes: 4 << 10, Ways: 2, LineBytes: mem.LineBytes, WriteAlloc: writeAlloc}
}

func (c Config) sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d", c.Ways)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by way*line", c.SizeBytes)
	}
	s := c.sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	return nil
}

// line is one way's metadata; its data bytes live in Cache.data. A line
// holds no pointers, so the array of them holds none either, and the
// allocator starts it on a host cache line (see mem.WholeLines).
type line struct {
	valid bool
	dirty bool
	tag   uint32
	age   uint64 // LRU timestamp; higher = more recent
}

// Stats counts cache events.
type Stats struct {
	Hits        int
	Misses      int
	Evictions   int
	Writebacks  int
	Invalidates int
}

// Cache is the tag/data array. Timing lives in Ctrl; Cache itself is purely
// functional state.
type Cache struct {
	cfg Config
	// lines holds every set's ways, set by set, and data their line bytes
	// in the same order: way w of set s is lines[s*Ways+w].
	lines []line
	data  []byte
	tick  uint64
	stats Stats

	setShift uint32
	setMask  uint32

	// cov/covRole collect hit/miss/evict/writeback coverage when attached;
	// a nil map (the default) is the zero-cost disabled mode.
	cov     *coverage.Map
	covRole int

	// sinceInv marks that a CINV has happened and no miss has been recorded
	// yet: the next miss is a chunk-boundary cold refill (CacheColdMiss).
	sinceInv bool

	// _ fills Cache out to whole 64-byte host cache lines (192
	// bytes); see soc.TestHotStateOwnsCacheLines.
	_ [32]byte
}

// New builds an empty cache with the given configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.sets()
	shift := uint32(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:      cfg,
		lines:    mem.WholeLines[line](nSets * cfg.Ways),
		data:     mem.WholeLines[byte](nSets * cfg.Ways * cfg.LineBytes),
		setShift: shift, setMask: uint32(nSets - 1),
	}
}

// set returns the ways of set s.
func (c *Cache) set(s uint32) []line {
	i := int(s) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways]
}

// lineData returns the data bytes of way w of set s.
func (c *Cache) lineData(s uint32, w int) []byte {
	i := (int(s)*c.cfg.Ways + w) * c.cfg.LineBytes
	return c.data[i : i+c.cfg.LineBytes]
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated event counts.
func (c *Cache) Stats() Stats { return c.stats }

// SetCoverage attaches a coverage map recording this cache's events under
// the given role (coverage.RoleICache / RoleDCache); nil detaches. The
// attachment survives Reset.
func (c *Cache) SetCoverage(m *coverage.Map, role int) {
	c.cov = m
	c.covRole = role
}

// cover records one cache event when a coverage map is attached.
func (c *Cache) cover(event int) {
	if c.cov != nil {
		c.cov.Inc(coverage.CacheFeat(c.covRole, event))
	}
}

// coverMiss records a miss, distinguishing the first miss after a CINV —
// the refill at a wrapping-strategy chunk boundary.
func (c *Cache) coverMiss() {
	c.cover(coverage.CacheMiss)
	if c.sinceInv {
		c.sinceInv = false
		c.cover(coverage.CacheColdMiss)
	}
}

func (c *Cache) index(addr uint32) (set, tag uint32) {
	return (addr >> c.setShift) & c.setMask, addr >> c.setShift >> trailingBits(c.setMask)
}

func trailingBits(mask uint32) uint32 {
	n := uint32(0)
	for mask != 0 {
		n++
		mask >>= 1
	}
	return n
}

// lookup returns the way index of addr's line, or -1.
func (c *Cache) lookup(addr uint32) (set uint32, way int) {
	s, tag := c.index(addr)
	for w, ln := range c.set(s) {
		if ln.valid && ln.tag == tag {
			return s, w
		}
	}
	return s, -1
}

// Contains reports whether addr's line is resident (no LRU side effects).
func (c *Cache) Contains(addr uint32) bool {
	_, w := c.lookup(addr)
	return w >= 0
}

// Read returns up to 8 bytes at addr on a hit. n must not cross a line
// boundary.
func (c *Cache) Read(addr uint32, n int) (v uint64, hit bool) {
	s, w := c.lookup(addr)
	if w < 0 {
		c.stats.Misses++
		c.coverMiss()
		return 0, false
	}
	c.stats.Hits++
	c.cover(coverage.CacheHit)
	c.touch(s, w)
	off := addr & uint32(c.cfg.LineBytes-1)
	return readLE(c.lineData(s, w)[off:], n), true
}

// Write stores n bytes at addr on a hit, marking the line dirty.
func (c *Cache) Write(addr uint32, v uint64, n int) (hit bool) {
	s, w := c.lookup(addr)
	if w < 0 {
		c.stats.Misses++
		c.coverMiss()
		return false
	}
	c.stats.Hits++
	c.cover(coverage.CacheHit)
	c.touch(s, w)
	c.set(s)[w].dirty = true
	off := addr & uint32(c.cfg.LineBytes-1)
	writeLE(c.lineData(s, w)[off:], v, n)
	return true
}

func (c *Cache) touch(s uint32, w int) {
	c.tick++
	c.set(s)[w].age = c.tick
}

// Victim returns the way that a refill of addr would replace and, when that
// way is valid and dirty, the line's address and data for write-back.
func (c *Cache) Victim(addr uint32) (way int, wbAddr uint32, wbData []byte, needWB bool) {
	s, _ := c.index(addr)
	way = 0
	var oldest uint64 = ^uint64(0)
	ways := c.set(s)
	for w, ln := range ways {
		if !ln.valid {
			return w, 0, nil, false
		}
		if ln.age < oldest {
			oldest = ln.age
			way = w
		}
	}
	if v := ways[way]; v.dirty {
		return way, c.lineBase(s, v.tag), c.lineData(s, way), true
	}
	return way, 0, nil, false
}

func (c *Cache) lineBase(set, tag uint32) uint32 {
	return (tag<<trailingBits(c.setMask) | set) << c.setShift
}

// Fill installs line data for addr into the given way.
func (c *Cache) Fill(addr uint32, way int, data []byte) {
	s, tag := c.index(addr)
	ln := &c.set(s)[way]
	if ln.valid {
		c.stats.Evictions++
		if ln.dirty {
			c.stats.Writebacks++
			c.cover(coverage.CacheWriteback)
		} else {
			c.cover(coverage.CacheEvict)
		}
	}
	ln.valid = true
	ln.dirty = false
	ln.tag = tag
	copy(c.lineData(s, way), data)
	c.touch(s, way)
}

// InvalidateAll drops every line without writing anything back (the CINV
// semantics the test strategy relies on: caches start cold and clean).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i].valid = false
		c.lines[i].dirty = false
	}
	c.stats.Invalidates++
	c.cover(coverage.CacheInvalidate)
	c.sinceInv = true
}

// Reset restores power-on state: every line invalid and clean, statistics
// and the LRU clock cleared. Unlike InvalidateAll it does not count as an
// invalidate event — it models a cold reset, not a CINV instruction.
func (c *Cache) Reset() {
	clear(c.lines)
	c.tick = 0
	c.stats = Stats{}
	c.sinceInv = false
}

// State is an opaque snapshot of a cache's dynamic state (see Snapshot).
type State struct {
	lines    []line // invalid lines are zero entries
	data     []byte // an invalid line's bytes are zero
	tick     uint64
	stats    Stats
	sinceInv bool
}

// Snapshot captures the tag/data array, LRU clock and statistics mid-run.
// Invalid lines are recorded as zero entries: their residual tag and data
// bytes are unobservable (every lookup checks valid first), and omitting
// them makes snapshots of behaviourally identical caches compare equal
// regardless of what earlier runs left in the arrays.
func (c *Cache) Snapshot() *State {
	st := &State{
		lines: make([]line, len(c.lines)), data: make([]byte, len(c.data)),
		tick: c.tick, stats: c.stats, sinceInv: c.sinceInv,
	}
	n := c.cfg.LineBytes
	for i, ln := range c.lines {
		if ln.valid {
			st.lines[i] = ln
			copy(st.data[i*n:(i+1)*n], c.data[i*n:])
		}
	}
	return st
}

// Restore rewinds the cache to a snapshot taken from an identically
// configured cache. Invalid lines get zeroed metadata and data bytes
// (unobservable, see Snapshot).
func (c *Cache) Restore(st *State) {
	copy(c.lines, st.lines)
	copy(c.data, st.data)
	c.tick = st.tick
	c.stats = st.stats
	c.sinceInv = st.sinceInv
}

// ResidentLines counts valid lines (used in tests and by the strategy
// checker to verify a routine fits).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, ln := range c.lines {
		if ln.valid {
			n++
		}
	}
	return n
}

// readAt/writeAt serve an access that is known to hit (used by the
// controller right after a Fill) without perturbing hit/miss statistics.
func (c *Cache) readAt(addr uint32, n int) uint64 {
	s, w := c.lookup(addr)
	if w < 0 {
		panic("cache: readAt miss")
	}
	c.touch(s, w)
	off := addr & uint32(c.cfg.LineBytes-1)
	return readLE(c.lineData(s, w)[off:], n)
}

func (c *Cache) writeAt(addr uint32, v uint64, n int) {
	s, w := c.lookup(addr)
	if w < 0 {
		panic("cache: writeAt miss")
	}
	c.touch(s, w)
	c.set(s)[w].dirty = true
	off := addr & uint32(c.cfg.LineBytes-1)
	writeLE(c.lineData(s, w)[off:], v, n)
}

func readLE(b []byte, n int) uint64 {
	switch n {
	case 1:
		return uint64(b[0])
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	panic(fmt.Sprintf("cache: bad access size %d", n))
}

func writeLE(b []byte, v uint64, n int) {
	switch n {
	case 1:
		b[0] = byte(v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		panic(fmt.Sprintf("cache: bad access size %d", n))
	}
}
