package core

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sbst"
)

// Strategy emits the executable form of one routine into a program under
// construction. The final signature is left in isa.RegSig. Emit does not
// terminate the program (no HALT), so several routines can be sequenced;
// the runner appends the terminator.
type Strategy interface {
	Name() string
	Emit(b *asm.Builder, r *sbst.Routine) error
	// MemoryOverhead reports the bytes of system memory the strategy
	// permanently reserves beyond the routine image itself (Table IV).
	MemoryOverhead(r *sbst.Routine) (int, error)
}

// StrategyByName returns the strategy whose Name is name, in the form the
// paper runs it, for the routine of core coreID: "plain" is Plain, "cache"
// a write-allocate CacheBased and "tcm" TCMBased on coreID's TCMs.
func StrategyByName(name string, coreID int) (Strategy, error) {
	switch name {
	case "plain":
		return Plain{}, nil
	case "cache":
		return CacheBased{WriteAllocate: true}, nil
	case "tcm":
		return TCMBased{CoreID: coreID}, nil
	}
	return nil, fmt.Errorf("unknown strategy %q (want plain, cache or tcm)", name)
}

// A staged strategy assembles part of a routine on its own before it
// emits the routine: CacheBased sizes it, and TCMBased assembles the body
// it embeds. assemble stages every routine of a job in the builder it
// then assembles the job's program in, so the program reuses the space
// the stages grew instead of each stage growing a builder of its own.
type staged interface {
	// stage assembles r's part in b, which it resets first, and returns
	// the function that emits r with it.
	stage(b *asm.Builder, r *sbst.Routine) (emit func(*asm.Builder), err error)
}

// emitStaged is a staged strategy's Emit: it stages r in a builder of its
// own.
func emitStaged(s staged, b *asm.Builder, r *sbst.Routine) error {
	emit, err := s.stage(asm.NewBuilder(), r)
	if err != nil {
		return err
	}
	emit(b)
	return nil
}

// Plain executes the routine in place, exactly as a single-core STL would:
// no caches involved, no loop.
type Plain struct{}

// Name implements Strategy.
func (Plain) Name() string { return "plain" }

// Emit implements Strategy.
func (Plain) Emit(b *asm.Builder, r *sbst.Routine) error {
	r.EmitSigReset(b)
	b.Nop() // keep issue-packet parity even
	emitDataBase(b, r)
	r.EmitBody(b)
	return nil
}

// MemoryOverhead implements Strategy.
func (Plain) MemoryOverhead(*sbst.Routine) (int, error) { return 0, nil }

// CacheBased is the paper's strategy.
type CacheBased struct {
	// ICacheBytes bounds the code-footprint checks; zero uses the paper's
	// 8 kB instruction cache. The data footprint is always checked against
	// the paper's 4 kB data cache.
	ICacheBytes int
	// WriteAllocate describes the data-cache policy the routine will run
	// under. With no-write-allocate the routine must carry dummy loads.
	WriteAllocate bool
	// DummyLoadsPresent asserts the routine was generated with a dummy
	// load after every store (required when WriteAllocate is false).
	DummyLoadsPresent bool
	// Iterations is the loop count; the paper uses 2 (one loading loop,
	// one execution loop). Values > 2 only add redundant execution loops;
	// 1 disables the loading loop (used by the ablation bench).
	Iterations int
}

// Name implements Strategy.
func (CacheBased) Name() string { return "cache" }

func (s CacheBased) icacheBytes() int {
	if s.ICacheBytes > 0 {
		return s.ICacheBytes
	}
	return cache.ICacheConfig().SizeBytes
}

func (s CacheBased) iterations() int {
	if s.Iterations > 0 {
		return s.Iterations
	}
	return 2
}

// chunkOverheadBytes is the per-chunk wrapper size: invalidate, loop
// counter, sig spill/reload, data base, loop branch — measured generously.
const chunkOverheadBytes = 24 * isa.InstBytes

// Emit implements Strategy.
func (s CacheBased) Emit(b *asm.Builder, r *sbst.Routine) error { return emitStaged(s, b, r) }

// stage validates r, sizing it in b, and partitions it into the chunks
// its emit function emits.
func (s CacheBased) stage(b *asm.Builder, r *sbst.Routine) (func(*asm.Builder), error) {
	size, err := s.validate(b, r)
	if err != nil {
		return nil, err
	}
	chunks, err := s.partition(r, size)
	if err != nil {
		return nil, err
	}
	return func(b *asm.Builder) {
		if len(chunks) == 1 {
			s.emitSingleChunk(b, r)
		} else {
			s.emitMultiChunk(b, r, chunks)
		}
	}, nil
}

// Validate checks the strategy's applicability rules (Section III).
func (s CacheBased) Validate(r *sbst.Routine) error {
	_, err := s.validate(asm.NewBuilder(), r)
	return err
}

// validate is Validate, sizing the routine in b; it also returns the
// routine's size in bytes (sbst.Routine.SizeBytes), which partition takes.
func (s CacheBased) validate(b *asm.Builder, r *sbst.Routine) (int, error) {
	if !s.WriteAllocate && !s.DummyLoadsPresent {
		return 0, fmt.Errorf("core: routine %q targets a no-write-allocate data cache "+
			"but was generated without dummy loads after stores (rule 1)", r.Name)
	}
	if dcache := cache.DCacheConfig(true).SizeBytes; r.DataSize()+8 > dcache {
		return 0, fmt.Errorf("core: routine %q data footprint %d bytes exceeds the "+
			"%d-byte data cache", r.Name, r.DataSize(), dcache)
	}
	size, err := r.SizeBytesIn(b)
	if err != nil {
		return 0, err
	}
	if r.NoSplit && size+chunkOverheadBytes > s.icacheBytes() {
		return 0, fmt.Errorf("core: routine %q (%d bytes) does not fit the %d-byte "+
			"instruction cache and cannot be split", r.Name, size, s.icacheBytes())
	}
	return size, nil
}

// partition groups blocks into chunks that fit the instruction cache;
// size is the routine's size in bytes (sbst.Routine.SizeBytes).
func (s CacheBased) partition(r *sbst.Routine, size int) ([][]sbst.Block, error) {
	if r.NoSplit || size+chunkOverheadBytes <= s.icacheBytes() {
		return [][]sbst.Block{r.Blocks}, nil
	}
	budget := s.icacheBytes() - chunkOverheadBytes
	var chunks [][]sbst.Block
	var cur []sbst.Block
	curSize := 0
	for _, blk := range r.Blocks {
		bs, err := blockSize(blk)
		if err != nil {
			return nil, fmt.Errorf("core: sizing block %q of %q: %w", blk.Name, r.Name, err)
		}
		if bs > budget {
			return nil, fmt.Errorf("core: block %q of %q (%d bytes) exceeds the "+
				"chunk budget %d", blk.Name, r.Name, bs, budget)
		}
		if curSize+bs > budget && len(cur) > 0 {
			chunks = append(chunks, cur)
			cur, curSize = nil, 0
		}
		cur = append(cur, blk)
		curSize += bs
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks, nil
}

func blockSize(blk sbst.Block) (int, error) {
	b := asm.NewBuilder()
	blk.Emit(b)
	p, err := b.Assemble(0)
	if err != nil {
		return 0, err
	}
	return p.Size(), nil
}

// emitSingleChunk emits the Figure 2b structure for a routine that fits.
func (s CacheBased) emitSingleChunk(b *asm.Builder, r *sbst.Routine) {
	b.Cinv(isa.CinvBoth)
	b.I(isa.OpADDI, isa.RegLoop, isa.RegZero, int32(s.iterations()))
	loop := b.AutoLabel("ldexe")
	b.Label(loop)
	r.EmitSigReset(b)
	b.Nop()
	emitDataBase(b, r)
	r.EmitBody(b)
	b.I(isa.OpADDI, isa.RegLoop, isa.RegLoop, -1)
	b.Branch(isa.OpBNE, isa.RegLoop, isa.RegZero, loop)
}

// emitMultiChunk emits one invalidate+loop per chunk, chaining the
// signature through an uncached mailbox so a loading loop can never
// pollute the committed value and a later chunk's invalidate can never
// discard it (the mailbox bypasses the write-back data cache entirely).
func (s CacheBased) emitMultiChunk(b *asm.Builder, r *sbst.Routine, chunks [][]sbst.Block) {
	mailbox := sigMailboxAddr(r)
	// Preamble: clear the mailbox.
	emitLi2(b, isa.RegTmp1, mailbox)
	b.Store(isa.OpSW, isa.RegZero, isa.RegTmp1, 0)
	for _, chunk := range chunks {
		b.Cinv(isa.CinvBoth)
		b.I(isa.OpADDI, isa.RegLoop, isa.RegZero, int32(s.iterations()))
		loop := b.AutoLabel("chunk")
		b.Label(loop)
		// Reload the committed signature; the loading loop's accumulation
		// is discarded by this reload on the execution loop's entry.
		emitLi2(b, isa.RegTmp1, mailbox)
		b.Load(isa.OpLW, isa.RegSig, isa.RegTmp1, 0)
		emitDataBase(b, r)
		for _, blk := range chunk {
			blk.Emit(b)
		}
		b.I(isa.OpADDI, isa.RegLoop, isa.RegLoop, -1)
		b.Branch(isa.OpBNE, isa.RegLoop, isa.RegZero, loop)
		// Commit after the execution loop.
		emitLi2(b, isa.RegTmp1, mailbox)
		b.Store(isa.OpSW, isa.RegSig, isa.RegTmp1, 0)
	}
	// Leave the final signature in the register too.
	emitLi2(b, isa.RegTmp1, mailbox)
	b.Load(isa.OpLW, isa.RegSig, isa.RegTmp1, 0)
	b.Nop()
	b.Nop()
}

// MemoryOverhead implements Strategy: the cache-based approach reserves no
// memory (the multi-chunk mailbox lives in the routine's existing scratch
// area).
func (CacheBased) MemoryOverhead(*sbst.Routine) (int, error) { return 0, nil }

// sigMailboxAddr places the signature mailbox in the uncached SRAM alias,
// just past the routine's data area, on its own cache line: the routine's
// cached stores must never share a line with the mailbox, or a later dirty
// write-back could overwrite the uncached commit.
func sigMailboxAddr(r *sbst.Routine) uint32 {
	off := r.DataBase - mem.SRAMBase + uint32((r.DataSize()+mem.LineBytes-1)&^(mem.LineBytes-1))
	return mem.SRAMUncachedBase + off
}

// emitDataBase materialises the routine's data pointer in a fixed two
// instructions so packet parity does not depend on the address value.
func emitDataBase(b *asm.Builder, r *sbst.Routine) {
	emitLi2(b, isa.RegBase, r.DataBase)
}

// emitLi2 is a fixed-size (two instruction) load-immediate.
func emitLi2(b *asm.Builder, rd uint8, v uint32) {
	b.I(isa.OpLUI, rd, 0, int32(v>>16))
	b.I(isa.OpORI, rd, rd, int32(v&0xFFFF))
}
