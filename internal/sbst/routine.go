package sbst

import (
	"fmt"
	"math/bits"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Block is an atomic fragment of a routine body: the wrapping strategies
// may split a routine between blocks (when it exceeds the I-cache) but
// never inside one. Emit must produce straight-line code or loops that are
// fully contained in the block; any labels must come from b.AutoLabel.
type Block struct {
	Name string
	Emit func(b *asm.Builder)
}

// Routine is one self-test procedure in single-core form (the paper's
// Figure 2a: blocks b and c).
type Routine struct {
	Name   string
	Target string // module under test, e.g. "forwarding", "hdcu", "icu"

	// DataBase is the address of the routine's pattern table and scratch
	// area; DataWords is the table's initial contents (written to memory
	// by the loader before the run) and ScratchBytes the extra room the
	// routine stores into beyond the table.
	DataBase     uint32
	DataWords    []uint32
	ScratchBytes int

	UsesPerfCounters bool
	UsesInterrupts   bool

	// NoSplit forbids chunking: the routine's blocks reference each other
	// (e.g. the ICU routine's handler), so all of it must be cache-resident
	// at once.
	NoSplit bool

	Blocks []Block
}

// DataSize returns the total data footprint in bytes.
func (r *Routine) DataSize() int { return len(r.DataWords)*4 + r.ScratchBytes }

// EmitPrologue emits the per-chunk setup: the data base pointer. The
// signature reset is separate because it must happen exactly once per
// routine (not per chunk).
func (r *Routine) EmitPrologue(b *asm.Builder) {
	b.Li(isa.RegBase, r.DataBase)
}

// EmitSigReset zeroes the signature register.
func (r *Routine) EmitSigReset(b *asm.Builder) {
	b.R(isa.OpXOR, isa.RegSig, isa.RegSig, isa.RegSig)
}

// EmitBody emits every block in order (single-chunk form).
func (r *Routine) EmitBody(b *asm.Builder) {
	for _, blk := range r.Blocks {
		blk.Emit(b)
	}
}

// EmitPlain emits the complete single-core routine: signature reset,
// prologue, body. No HALT — callers decide how the program ends.
func (r *Routine) EmitPlain(b *asm.Builder) {
	r.EmitSigReset(b)
	r.EmitPrologue(b)
	r.EmitBody(b)
}

// SizeBytes returns the assembled size of the plain form (prologue + body),
// used by the strategies to decide whether the routine fits a cache.
func (r *Routine) SizeBytes() (int, error) { return r.SizeBytesIn(asm.NewBuilder()) }

// SizeBytesIn is SizeBytes assembling in b, which it resets first.
func (r *Routine) SizeBytesIn(b *asm.Builder) (int, error) {
	b.Reset()
	r.EmitPlain(b)
	p, err := b.Assemble(0)
	if err != nil {
		return 0, err
	}
	return p.Size(), nil
}

// Repeat returns a variant of r whose body executes reps times inside a
// counted loop (identical control flow on every execution, so it remains
// compatible with the cache-based strategy). Real STL routines iterate
// their pattern sweeps; repetition also shifts a routine from fetch-bound
// to compute-bound once its code is cache- or TCM-resident. The loop
// counter uses the link register, so r must not use r31; the result is a
// single atomic block (NoSplit).
func Repeat(r *Routine, reps int) *Routine {
	if reps <= 1 {
		return r
	}
	cp := *r
	cp.Name = fmt.Sprintf("%s(x%d)", r.Name, reps)
	cp.NoSplit = true
	inner := r.Blocks
	cp.Blocks = []Block{{
		Name: "repeat",
		Emit: func(b *asm.Builder) {
			b.I(isa.OpADDI, isa.RegLink, isa.RegZero, int32(reps))
			top := b.AutoLabel("rep")
			b.Label(top)
			for _, blk := range inner {
				blk.Emit(b)
			}
			b.I(isa.OpADDI, isa.RegLink, isa.RegLink, -1)
			b.Branch(isa.OpBNE, isa.RegLink, isa.RegZero, top)
		},
	}}
	return &cp
}

// RegInitBlock returns a block that loads every operand register
// (r1..r22) with a distinct constant. Routines must start with it so no
// later fold can observe state left behind by whatever ran before the body
// — a classic STL rule: a self-test signature may only depend on values
// the routine itself produced.
func RegInitBlock() Block {
	return Block{Name: "reginit", Emit: func(b *asm.Builder) {
		for reg := uint8(1); reg <= 22; reg++ {
			b.I(isa.OpADDI, reg, isa.RegZero, int32(reg)*0x101)
		}
	}}
}

// Misr is the Go-side reference model of the software MISR the routines
// compute with asm.Builder.Misr: sig' = (sig rotl 1) XOR v.
func Misr(sig, v uint32) uint32 { return bits.RotateLeft32(sig, 1) ^ v }

// MisrStream folds a value stream into a signature starting from zero.
func MisrStream(vals ...uint32) uint32 {
	var sig uint32
	for _, v := range vals {
		sig = Misr(sig, v)
	}
	return sig
}
