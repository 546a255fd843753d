package isa

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOpStringsUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := OpInvalid + 1; op < opMax; op++ {
		s := op.String()
		if s == "" || s == "invalid" {
			t.Errorf("op %d has no mnemonic", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("mnemonic %q shared by %d and %d", s, prev, op)
		}
		seen[s] = op
	}
}

func TestEveryOpHasFormat(t *testing.T) {
	for op := OpInvalid + 1; op < opMax; op++ {
		// FmtNone is a legitimate format, so only check that R-type ops
		// were not accidentally given a major opcode and vice versa.
		_, isI := opMajor[op]
		f := FormatOf(op)
		if isI && f == FmtR {
			t.Errorf("%v has a major opcode but R format", op)
		}
	}
}

func TestEncodeDecodeRoundTripExhaustiveOps(t *testing.T) {
	cases := []Inst{
		{Op: OpADD, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: OpSUB, Rd: 31, Rs1: 30, Rs2: 29},
		{Op: OpSLL, Rd: 5, Rs1: 6, Imm: 31},
		{Op: OpSRA, Rd: 5, Rs1: 6, Imm: 0},
		{Op: OpADDI, Rd: 7, Rs1: 8, Imm: -32768},
		{Op: OpADDI, Rd: 7, Rs1: 8, Imm: 32767},
		{Op: OpANDI, Rd: 7, Rs1: 8, Imm: 0xFFFF},
		{Op: OpORI, Rd: 1, Rs1: 0, Imm: 0},
		{Op: OpLUI, Rd: 9, Imm: 0xABCD},
		{Op: OpLW, Rd: 10, Rs1: 29, Imm: 1024},
		{Op: OpSW, Rs2: 11, Rs1: 29, Imm: -4},
		{Op: OpLB, Rd: 2, Rs1: 3, Imm: 5},
		{Op: OpSB, Rs2: 2, Rs1: 3, Imm: -5},
		{Op: OpLWP, Rd: 12, Rs1: 29, Imm: 8},
		{Op: OpSWP, Rs2: 12, Rs1: 29, Imm: 8},
		{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: -32768},
		{Op: OpBNE, Rs1: 1, Rs2: 2, Imm: 32764},
		{Op: OpBLT, Rs1: 3, Rs2: 4, Imm: 8},
		{Op: OpBGE, Rs1: 3, Rs2: 4, Imm: -8},
		{Op: OpJ, Imm: -(1 << 25)},
		{Op: OpJAL, Imm: 1<<25 - 4},
		{Op: OpJALR, Rd: 31, Rs1: 5},
		{Op: OpJR, Rs1: 31},
		{Op: OpCSRR, Rd: 4, Imm: CsrCycle},
		{Op: OpCSRW, Rs1: 4, Imm: CsrIEnable},
		{Op: OpCINV, Imm: CinvBoth},
		{Op: OpRFE}, {Op: OpHALT}, {Op: OpNOP},
		{Op: OpADDV, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpDIVV, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpADDP, Rd: 2, Rs1: 4, Rs2: 6},
		{Op: OpMUL, Rd: 8, Rs1: 9, Rs2: 10},
		{Op: OpNOR, Rd: 8, Rs1: 9, Rs2: 10},
		{Op: OpSLTU, Rd: 8, Rs1: 9, Rs2: 10},
		{Op: OpSLLV, Rd: 8, Rs1: 9, Rs2: 10},
	}
	for _, in := range cases {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)) = 0x%08x: %v", in, w, err)
		}
		if out != in {
			t.Errorf("roundtrip %v -> 0x%08x -> %v", in, w, out)
		}
	}
}

// randInst builds a random but encodable instruction.
func randInst(r *rand.Rand) Inst {
	for {
		op := Op(1 + r.Intn(NumOps))
		i := Inst{Op: op}
		switch FormatOf(op) {
		case FmtR:
			i.Rd, i.Rs1, i.Rs2 = uint8(r.Intn(32)), uint8(r.Intn(32)), uint8(r.Intn(32))
		case FmtRShamt:
			i.Rd, i.Rs1, i.Imm = uint8(r.Intn(32)), uint8(r.Intn(32)), int32(r.Intn(32))
		case FmtI:
			i.Rd, i.Rs1 = uint8(r.Intn(32)), uint8(r.Intn(32))
			if zeroExtImm(op) {
				i.Imm = int32(r.Intn(1 << 16))
			} else {
				i.Imm = int32(r.Intn(1<<16)) - 1<<15
			}
		case FmtLui:
			i.Rd, i.Imm = uint8(r.Intn(32)), int32(r.Intn(1<<16))
		case FmtMem:
			i.Rs1, i.Imm = uint8(r.Intn(32)), int32(r.Intn(1<<16))-1<<15
			if op.IsStore() {
				i.Rs2 = uint8(r.Intn(32))
			} else {
				i.Rd = uint8(r.Intn(32))
			}
		case FmtBranch:
			i.Rs1, i.Rs2 = uint8(r.Intn(32)), uint8(r.Intn(32))
			i.Imm = (int32(r.Intn(1<<14)) - 1<<13) * 4
		case FmtJump:
			i.Imm = (int32(r.Intn(1<<24)) - 1<<23) * 4
		case FmtJR:
			i.Rs1 = uint8(r.Intn(32))
		case FmtJALR:
			i.Rd, i.Rs1 = uint8(r.Intn(32)), uint8(r.Intn(32))
		case FmtCSRR:
			i.Rd, i.Imm = uint8(r.Intn(32)), int32(r.Intn(17))
		case FmtCSRW:
			i.Rs1, i.Imm = uint8(r.Intn(32)), int32(r.Intn(17))
		case FmtCINV:
			i.Imm = int32(1 + r.Intn(3))
		}
		return i
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 5000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randInst(r))
		},
	}
	prop := func(in Inst) bool {
		w, err := Encode(in)
		if err != nil {
			t.Logf("encode %v: %v", in, err)
			return false
		}
		out, err := Decode(w)
		if err != nil {
			t.Logf("decode 0x%08x: %v", w, err)
			return false
		}
		return out == in
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := []uint32{
		0xFFFFFFFF,                          // major 63 undefined
		uint32(7) << 26,                     // major 7 undefined
		uint32(majorRType) | 0,              // funct 0 = OpInvalid
		uint32(majorRType) | uint32(OpADDI), // I-type op as R funct
		uint32(0x3F) << 26,
	}
	for _, w := range bad {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(0x%08x) accepted garbage", w)
		}
		if _, ok := DecodeOK(w); ok {
			t.Errorf("DecodeOK(0x%08x) accepted garbage", w)
		}
		if n := testing.AllocsPerRun(10, func() { DecodeOK(w) }); n != 0 {
			t.Errorf("DecodeOK(0x%08x) allocated %v times", w, n)
		}
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	bad := []Inst{
		{Op: OpADDI, Rd: 1, Rs1: 1, Imm: 40000},
		{Op: OpADDI, Rd: 1, Rs1: 1, Imm: -40000},
		{Op: OpANDI, Rd: 1, Rs1: 1, Imm: -1},
		{Op: OpSLL, Rd: 1, Rs1: 1, Imm: 32},
		{Op: OpBEQ, Rs1: 1, Rs2: 1, Imm: 2},       // misaligned
		{Op: OpBEQ, Rs1: 1, Rs2: 1, Imm: 1 << 16}, // out of range
		{Op: OpJ, Imm: 1 << 26},
		{Op: OpJ, Imm: 6}, // misaligned
		{Op: OpADD, Rd: 32, Rs1: 0, Rs2: 0},
		{Op: OpInvalid},
	}
	for _, i := range bad {
		if _, err := Encode(i); err == nil {
			t.Errorf("Encode(%v) accepted out-of-range operand", i)
		}
	}
}

func TestClassifiers(t *testing.T) {
	if !OpLW.IsLoad() || OpLW.IsStore() || !OpLW.IsMem() {
		t.Error("LW misclassified")
	}
	if !OpSWP.IsStore() || !OpSWP.IsPair() {
		t.Error("SWP misclassified")
	}
	if !OpBEQ.IsBranch() || OpBEQ.IsJump() || !OpBEQ.IsControl() {
		t.Error("BEQ misclassified")
	}
	if !OpJAL.IsJump() || !OpRFE.IsJump() {
		t.Error("jump misclassified")
	}
	if !OpCSRR.IsSystem() || !OpHALT.IsSystem() {
		t.Error("system misclassified")
	}
	if !OpADDV.CanRaiseEvent() || OpADD.CanRaiseEvent() {
		t.Error("event classification wrong")
	}
}

func TestWritesRegAndSrcRegs(t *testing.T) {
	cases := []struct {
		i      Inst
		writes bool
		a      uint8
		useA   bool
		b      uint8
		useB   bool
	}{
		{Inst{Op: OpADD, Rd: 3, Rs1: 1, Rs2: 2}, true, 1, true, 2, true},
		{Inst{Op: OpADDI, Rd: 3, Rs1: 1, Imm: 5}, true, 1, true, 0, false},
		{Inst{Op: OpLW, Rd: 3, Rs1: 29, Imm: 0}, true, 29, true, 0, false},
		{Inst{Op: OpSW, Rs2: 3, Rs1: 29, Imm: 0}, false, 29, true, 3, true},
		{Inst{Op: OpBEQ, Rs1: 4, Rs2: 5, Imm: 8}, false, 4, true, 5, true},
		{Inst{Op: OpJAL, Imm: 8}, true, 0, false, 0, false},
		{Inst{Op: OpJR, Rs1: 31}, false, 31, true, 0, false},
		{Inst{Op: OpJALR, Rd: 31, Rs1: 2}, true, 2, true, 0, false},
		{Inst{Op: OpCSRW, Rs1: 7, Imm: CsrIVec}, false, 7, true, 0, false},
		{Inst{Op: OpCSRR, Rd: 7, Imm: CsrCycle}, true, 0, false, 0, false},
		{Inst{Op: OpNOP}, false, 0, false, 0, false},
	}
	for _, c := range cases {
		if got := c.i.WritesReg(); got != c.writes {
			t.Errorf("%v WritesReg = %v, want %v", c.i, got, c.writes)
		}
		a, ua, b, ub := c.i.SrcRegs()
		if a != c.a || ua != c.useA || b != c.b || ub != c.useB {
			t.Errorf("%v SrcRegs = (%d,%v,%d,%v), want (%d,%v,%d,%v)",
				c.i, a, ua, b, ub, c.a, c.useA, c.b, c.useB)
		}
	}
}

func TestDisasm(t *testing.T) {
	cases := []struct {
		i    Inst
		want string
	}{
		{Inst{Op: OpADD, Rd: 3, Rs1: 1, Rs2: 2}, "add r3, r1, r2"},
		{Inst{Op: OpADDI, Rd: 3, Rs1: 1, Imm: -7}, "addi r3, r1, -7"},
		{Inst{Op: OpLW, Rd: 4, Rs1: 29, Imm: 12}, "lw r4, 12(r29)"},
		{Inst{Op: OpSW, Rs2: 4, Rs1: 29, Imm: 12}, "sw r4, 12(r29)"},
		{Inst{Op: OpBNE, Rs1: 30, Rs2: 0, Imm: -16}, "bne r30, r0, -16"},
		{Inst{Op: OpCSRR, Rd: 5, Imm: CsrIFStall}, "csrr r5, ifstall"},
		{Inst{Op: OpNOP}, "nop"},
		{Inst{Op: OpSLL, Rd: 2, Rs1: 2, Imm: 1}, "sll r2, r2, 1"},
	}
	for _, c := range cases {
		if got := c.i.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.i, got, c.want)
		}
		w := MustEncode(c.i)
		if got := Disasm(w); got != c.want {
			t.Errorf("Disasm(0x%08x) = %q, want %q", w, got, c.want)
		}
	}
	if got := Disasm(0xFFFFFFFF); got != ".word 0xffffffff" {
		t.Errorf("Disasm(garbage) = %q", got)
	}
}
