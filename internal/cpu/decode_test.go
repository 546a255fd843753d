package cpu

import (
	"testing"

	"repro/internal/isa"
)

// TestDecodedRecordMatchesISA is the decoded-record oracle: for every op,
// with register-0, register-31 and mid-range operands, the record the
// decode cache holds equals what the issue, hazard and forwarding logic
// would otherwise derive from isa.Inst on every issue attempt.
func TestDecodedRecordMatchesISA(t *testing.T) {
	wantSize := map[isa.Op]uint8{
		isa.OpLB: 1, isa.OpLBU: 1, isa.OpSB: 1,
		isa.OpLW: 4, isa.OpSW: 4,
		isa.OpLWP: 8, isa.OpSWP: 8,
	}
	regs := []uint8{0, 1, 17, 30, 31}
	checked := 0
	for opn := 1; opn <= isa.NumOps; opn++ {
		op := isa.Op(opn)
		for _, rd := range regs {
			for _, rs1 := range regs {
				for _, rs2 := range regs {
					inst := isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: 8}
					w, err := isa.Encode(inst)
					if err != nil {
						t.Fatalf("%v: %v", inst, err)
					}
					dec, err := isa.Decode(w)
					if err != nil {
						t.Fatalf("%v: %v", inst, err)
					}
					d := decode(w)
					if d.bad || d.inst != dec {
						t.Fatalf("%v: record holds %v (bad %v), isa.Decode gives %v", inst, d.inst, d.bad, dec)
					}
					a, useA, b, useB := dec.SrcRegs()
					pairA, pairB := pairOperands(dec)
					want := decoded{
						inst: dec, srcA: a, useA: useA, srcB: b, useB: useB,
						pairA: pairA, pairB: pairB,
						rd: destOf(dec), writes: dec.WritesReg(),
						isLoad: op.IsLoad(), isStore: op.IsStore(), isMem: op.IsMem(), isPair: op.IsPair(),
						alone: op.IsControl() || op.IsSystem() || op.IsPair(),
						size:  wantSize[op],
					}
					if d != want {
						t.Fatalf("%v: record\n %+v\nwant\n %+v", dec, d, want)
					}
					checked++
				}
			}
		}
	}
	if want := isa.NumOps * len(regs) * len(regs) * len(regs); checked != want {
		t.Fatalf("checked %d records, want %d", checked, want)
	}
}

// TestDecodedRecordBadWord: an undecodable word gives a bad record with no
// other fact set, which stepIssue turns into a wedge (TestWedgeOnGarbage
// runs that end to end).
func TestDecodedRecordBadWord(t *testing.T) {
	for _, w := range []uint32{
		0,                  // funct 0 is OpInvalid
		0x0000_07FF,        // funct beyond the op range
		uint32(isa.OpADDI), // funct naming an I-type op
		0xFFFF_FFFF,        // unassigned major opcode
		20<<26 | 2,         // misaligned J offset
		16<<26 | 1<<21 | 2, // misaligned BEQ offset
	} {
		if _, err := isa.Decode(w); err == nil {
			t.Fatalf("%#08x decodes; pick a garbage word", w)
		}
		if d := decode(w); d != (decoded{bad: true}) {
			t.Errorf("decode(%#08x) = %+v, want a bare bad record", w, d)
		}
	}
}
