package isa

import (
	"math/rand"
	"testing"
)

// randInstFor builds a random canonical instruction for op: only the fields
// the operand format uses are populated, with immediates drawn from the
// encodable range — exactly the shape Decode reports back.
func randInstFor(rng *rand.Rand, op Op) Inst {
	reg := func() uint8 { return uint8(rng.Intn(32)) }
	i := Inst{Op: op}
	switch FormatOf(op) {
	case FmtNone:
		// no operands
	case FmtR:
		i.Rd, i.Rs1, i.Rs2 = reg(), reg(), reg()
	case FmtRShamt:
		i.Rd, i.Rs1, i.Imm = reg(), reg(), int32(rng.Intn(32))
	case FmtI:
		i.Rd, i.Rs1 = reg(), reg()
		if zeroExtImm(op) {
			i.Imm = int32(rng.Intn(1 << 16))
		} else {
			i.Imm = int32(rng.Intn(1<<16)) - 1<<15
		}
	case FmtLui:
		i.Rd, i.Imm = reg(), int32(rng.Intn(1<<16))
	case FmtMem:
		i.Rs1, i.Imm = reg(), int32(rng.Intn(1<<16))-1<<15
		if op.IsStore() {
			i.Rs2 = reg()
		} else {
			i.Rd = reg()
		}
	case FmtBranch:
		i.Rs1, i.Rs2 = reg(), reg()
		i.Imm = (int32(rng.Intn(1<<16)) - 1<<15) &^ 3
	case FmtJump:
		i.Imm = (int32(rng.Intn(1<<26)) - 1<<25) &^ 3
	case FmtJR:
		i.Rs1 = reg()
	case FmtJALR:
		i.Rd, i.Rs1 = reg(), reg()
	case FmtCSRR:
		i.Rd, i.Imm = reg(), int32(rng.Intn(1<<16))
	case FmtCSRW:
		i.Rs1, i.Imm = reg(), int32(rng.Intn(1<<16))
	case FmtCINV:
		i.Imm = int32(1 + rng.Intn(3))
	}
	return i
}

// TestEncodeDecodeRoundTrip: for every operation of the ISA, random
// instances of its operand form must survive encode→decode bit-exactly,
// and re-encoding the decoded instruction must reproduce the same word.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 200
	for opn := 1; opn <= NumOps; opn++ {
		op := Op(opn)
		for trial := 0; trial < trials; trial++ {
			in := randInstFor(rng, op)
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("%v: cannot encode %+v: %v", op, in, err)
			}
			out, err := Decode(w)
			if err != nil {
				t.Fatalf("%v: cannot decode %08x (from %+v): %v", op, w, in, err)
			}
			if out != in {
				t.Fatalf("%v: round trip %+v -> %08x -> %+v", op, in, w, out)
			}
			w2, err := Encode(out)
			if err != nil {
				t.Fatalf("%v: cannot re-encode %+v: %v", op, out, err)
			}
			if w2 != w {
				t.Fatalf("%v: word round trip %08x -> %08x", op, w, w2)
			}
		}
	}
}

// TestDecodeNeverPanics: arbitrary words either decode to a valid op that
// re-encodes to the same word, or return an error — never panic, never
// decode to something unencodable. DecodeOK agrees with Decode on every
// word.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100_000; trial++ {
		w := rng.Uint32()
		inst, err := Decode(w)
		if got, ok := DecodeOK(w); ok != (err == nil) || got != inst {
			t.Fatalf("word %08x: DecodeOK = %+v, %v; Decode = %+v, %v", w, got, ok, inst, err)
		}
		if err != nil {
			continue
		}
		if !inst.Op.Valid() {
			t.Fatalf("word %08x decoded without error to invalid op", w)
		}
		w2, err := Encode(inst)
		if err != nil {
			t.Fatalf("word %08x decoded to unencodable %+v: %v", w, inst, err)
		}
		if w2 != w {
			t.Fatalf("word %08x re-encodes to %08x (%+v)", w, w2, inst)
		}
	}
}
