package core

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sbst"
)

// TCMBased is the comparison strategy of Table IV: the routine body is
// assembled for the core's instruction TCM, embedded in flash as data,
// copied word by word into the ITCM at run time and executed from there;
// the routine's pattern table is likewise staged into the data TCM. Like
// the cache-based strategy this isolates execution from the bus, but the
// TCM bytes are permanently reserved for test purposes — the memory
// overhead the paper argues against.
type TCMBased struct {
	CoreID int
}

// Name implements Strategy.
func (TCMBased) Name() string { return "tcm" }

// tcmRoutine returns a copy of r with its data repointed at the core's
// DTCM (blocks address data only through the base register, so the copy is
// safe).
func (s TCMBased) tcmRoutine(r *sbst.Routine) *sbst.Routine {
	cp := *r
	cp.DataBase = mem.DTCMFor(s.CoreID)
	return &cp
}

// bodyProgram assembles the routine in its TCM-resident form (signature
// reset, data base, body, return) at the core's ITCM base, in sub, which
// it resets first.
func (s TCMBased) bodyProgram(sub *asm.Builder, r *sbst.Routine) (*asm.Program, error) {
	sub.Reset()
	tr := s.tcmRoutine(r)
	tr.EmitSigReset(sub)
	sub.Nop()
	emitDataBase(sub, tr)
	tr.EmitBody(sub)
	sub.Emit(isa.Inst{Op: isa.OpJR, Rs1: isa.RegLink})
	return sub.Assemble(mem.ITCMFor(s.CoreID))
}

// validate checks the assembled body and pattern table against the TCM
// sizes — the strategy's applicability rule, shared by Emit and
// MemoryOverhead so an unplaceable routine is rejected consistently.
func (s TCMBased) validate(r *sbst.Routine, body *asm.Program) error {
	if body.Size()+12 > mem.TCMSize {
		return fmt.Errorf("core: routine %q (%d bytes) exceeds the %d-byte ITCM",
			r.Name, body.Size(), mem.TCMSize)
	}
	if r.DataSize() > mem.TCMSize {
		return fmt.Errorf("core: routine %q data (%d bytes) exceeds the %d-byte DTCM",
			r.Name, r.DataSize(), mem.TCMSize)
	}
	return nil
}

// Emit implements Strategy.
func (s TCMBased) Emit(b *asm.Builder, r *sbst.Routine) error { return emitStaged(s, b, r) }

// stage assembles r's body in b and validates it; its emit function
// emits the body's image and the code that runs it.
func (s TCMBased) stage(b *asm.Builder, r *sbst.Routine) (func(*asm.Builder), error) {
	body, err := s.bodyProgram(b, r)
	if err != nil {
		return nil, fmt.Errorf("core: assembling TCM body of %q: %w", r.Name, err)
	}
	if err := s.validate(r, body); err != nil {
		return nil, err
	}
	return func(b *asm.Builder) { s.emitBody(b, r, body) }, nil
}

// emitBody emits the copy loops, the call into the ITCM and body's image.
func (s TCMBased) emitBody(b *asm.Builder, r *sbst.Routine, body *asm.Program) {
	imgLabel := b.AutoLabel("tcmimg")

	// Copy the code image from flash into the ITCM, one cache-line-sized
	// group (four words) per iteration, as a production boot copy loop
	// would to exploit the flash line buffer.
	nWords := (len(body.Words) + 3) &^ 3
	b.LiAddr(1, imgLabel)
	emitLi2(b, 2, body.Base)
	b.Li(3, uint32(nWords/4))
	copyTop := b.AutoLabel("copycode")
	b.Label(copyTop)
	for k := int32(0); k < 4; k++ {
		b.Load(isa.OpLW, 4, 1, k*4)
		b.Store(isa.OpSW, 4, 2, k*4)
	}
	b.I(isa.OpADDI, 1, 1, 16)
	b.I(isa.OpADDI, 2, 2, 16)
	b.I(isa.OpADDI, 3, 3, -1)
	b.Branch(isa.OpBNE, 3, isa.RegZero, copyTop)

	// Stage the pattern table from system SRAM into the DTCM.
	if n := len(r.DataWords); n > 0 {
		emitLi2(b, 1, r.DataBase)
		emitLi2(b, 2, mem.DTCMFor(s.CoreID))
		b.Li(3, uint32(n))
		dataTop := b.AutoLabel("copydata")
		b.Label(dataTop)
		b.Load(isa.OpLW, 4, 1, 0)
		b.Store(isa.OpSW, 4, 2, 0)
		b.I(isa.OpADDI, 1, 1, 4)
		b.I(isa.OpADDI, 2, 2, 4)
		b.I(isa.OpADDI, 3, 3, -1)
		b.Branch(isa.OpBNE, 3, isa.RegZero, dataTop)
	}

	// Call into the ITCM; execution continues after the embedded image
	// when the routine returns.
	emitLi2(b, 2, body.Base)
	b.Emit(isa.Inst{Op: isa.OpJALR, Rd: isa.RegLink, Rs1: 2})
	after := b.AutoLabel("tcmafter")
	b.Jump(isa.OpJ, after)

	// Embedded code image.
	b.Align(16)
	b.Label(imgLabel)
	for _, w := range body.Words {
		b.Word(w)
	}
	b.Label(after)
}

// MemoryOverhead implements Strategy: the TCM bytes reserved for the
// routine's code and data (the paper's Table IV "overall memory overhead";
// the flash-side image exists under every strategy and is not counted,
// matching the paper's accounting). A routine whose code or data exceeds
// the TCMs has no overhead figure — it cannot be deployed this way — so the
// same validation Emit applies rejects it here too.
func (s TCMBased) MemoryOverhead(r *sbst.Routine) (int, error) {
	body, err := s.bodyProgram(asm.NewBuilder(), r)
	if err != nil {
		return 0, err
	}
	if err := s.validate(r, body); err != nil {
		return 0, err
	}
	return body.Size() + r.DataSize(), nil
}

var (
	_ Strategy = Plain{}
	_ Strategy = CacheBased{}
	_ Strategy = TCMBased{}
)
