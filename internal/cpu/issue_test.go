package cpu

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
)

// White-box tests of the issue rules: packet formation is where the HDCU
// lives, so each rule gets pinned independently of full-program behaviour.

// record encodes inst and decodes the word into the pipeline's record, the
// way the fetch unit fills its decode cache.
func record(t *testing.T, inst isa.Inst) decoded {
	t.Helper()
	d := decode(isa.MustEncode(inst))
	if d.bad {
		t.Fatalf("%v does not decode", inst)
	}
	return d
}

func issueProbe(t *testing.T, first, second isa.Inst, exLoad bool) (dual bool, casA, casB bool) {
	t.Helper()
	c := New(CoreC(), nil, nil, nil, nil)
	var exOld packet
	if exLoad {
		exOld[0] = uop{decoded: record(t, isa.Inst{Op: isa.OpLW, Rd: 6}), valid: true, memSize: 4}
	}
	d0, d1 := record(t, first), record(t, second)
	ok, a, b := c.canDualIssue(&exOld, &d0, &d1)
	return ok, a, b
}

func TestIssueRules(t *testing.T) {
	alu := func(rd, rs1, rs2 uint8) isa.Inst {
		return isa.Inst{Op: isa.OpADD, Rd: rd, Rs1: rs1, Rs2: rs2}
	}
	load := func(rd uint8) isa.Inst { return isa.Inst{Op: isa.OpLW, Rd: rd, Rs1: 29} }
	store := func(rs2 uint8) isa.Inst { return isa.Inst{Op: isa.OpSW, Rs2: rs2, Rs1: 29} }

	cases := []struct {
		name          string
		first, second isa.Inst
		exLoad        bool
		wantDual      bool
		wantCasA      bool
	}{
		{"independent ALU pair", alu(1, 2, 3), alu(4, 5, 6), false, true, false},
		{"RAW cascade", alu(1, 2, 3), alu(4, 1, 5), false, true, true},
		{"RAW cascade from load forbidden", load(1), alu(4, 1, 5), false, false, false},
		{"pure WAW splits", alu(1, 2, 3), alu(1, 4, 5), false, false, false},
		{"RAW+WAW cascades (lui/ori shape)", alu(1, 2, 3), alu(1, 1, 5), false, true, true},
		{"two memory ops split", load(1), store(2), false, false, false},
		{"load + ALU pairs", load(1), alu(4, 5, 6), false, true, false},
		{"branch second splits", alu(1, 2, 3), isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}, false, false, false},
		{"system second splits", alu(1, 2, 3), isa.Inst{Op: isa.OpCSRR, Rd: 4}, false, false, false},
		{"pair op second splits", alu(1, 2, 3), isa.Inst{Op: isa.OpADDP, Rd: 4, Rs1: 6, Rs2: 8}, false, false, false},
		{"load-use on second delays it", alu(1, 2, 3), alu(4, 6, 5), true, false, false},
		{"r0 RAW is no dependency", alu(0, 2, 3), alu(4, 0, 5), false, true, false},
	}
	for _, c := range cases {
		dual, casA, _ := issueProbe(t, c.first, c.second, c.exLoad)
		if dual != c.wantDual {
			t.Errorf("%s: dual = %v, want %v", c.name, dual, c.wantDual)
		}
		if casA != c.wantCasA {
			t.Errorf("%s: cascade = %v, want %v", c.name, casA, c.wantCasA)
		}
	}
}

func TestWidthHazardRules(t *testing.T) {
	c := New(CoreC(), nil, nil, nil, nil)
	pairProducer := packet{uop{valid: true, decoded: record(t, isa.Inst{Op: isa.OpADDP, Rd: 4})}}
	singleProducer := packet{uop{valid: true, decoded: record(t, isa.Inst{Op: isa.OpADD, Rd: 4})}}

	cases := []struct {
		name string
		pkt  packet
		inst isa.Inst
		want bool
	}{
		{"single->pair low overlap", singleProducer,
			isa.Inst{Op: isa.OpADDP, Rd: 8, Rs1: 4, Rs2: 10}, true},
		{"single->pair high overlap", singleProducer,
			isa.Inst{Op: isa.OpADDP, Rd: 8, Rs1: 3, Rs2: 10}, true},
		{"pair->single high word", pairProducer,
			isa.Inst{Op: isa.OpADD, Rd: 8, Rs1: 5, Rs2: 10}, true},
		{"pair->single base word forwards fine", pairProducer,
			isa.Inst{Op: isa.OpADD, Rd: 8, Rs1: 4, Rs2: 10}, false},
		{"pair->pair aligned forwards fine", pairProducer,
			isa.Inst{Op: isa.OpADDP, Rd: 8, Rs1: 4, Rs2: 10}, false},
		{"pair->pair offset overlap", pairProducer,
			isa.Inst{Op: isa.OpADDP, Rd: 8, Rs1: 5, Rs2: 10}, true},
		{"pair->pair offset overlap below", pairProducer,
			isa.Inst{Op: isa.OpADDP, Rd: 8, Rs1: 3, Rs2: 10}, true},
		{"unrelated registers", singleProducer,
			isa.Inst{Op: isa.OpADD, Rd: 8, Rs1: 9, Rs2: 10}, false},
	}
	for _, cse := range cases {
		d := record(t, cse.inst)
		if got := c.widthHazard(&cse.pkt, &d); got != cse.want {
			t.Errorf("%s: widthHazard = %v, want %v", cse.name, got, cse.want)
		}
	}
}

func TestPathUseAccounting(t *testing.T) {
	r := newTCMRig(t, CoreA(), nil, `
		addi r1, r0, 3
		add  r2, r1, r1    ; cascade x2
		nop
		add  r3, r2, r2    ; EXL? distance depends on pairing; just run
		halt
	`)
	r.run(t, 200)
	var total int64
	use := r.core.PathUse
	for lane := 0; lane < 2; lane++ {
		for op := 0; op < 2; op++ {
			for p := 0; p < fault.NumPaths; p++ {
				if use[lane][op][p] < 0 {
					t.Fatal("negative path count")
				}
				total += use[lane][op][p]
			}
		}
	}
	if total == 0 {
		t.Error("no operand resolutions recorded")
	}
	if use[1][0][fault.PathCascade] == 0 {
		t.Error("cascade not recorded")
	}
}

func TestIssued2CountExact(t *testing.T) {
	// Four independent pairable ALU instructions after a serialising CSR
	// read: exactly two dual-issue packets.
	r := newTCMRig(t, CoreA(), nil, `
		csrr r20, issued2
		add  r1, r0, r0
		add  r2, r0, r0
		add  r3, r0, r0
		add  r4, r0, r0
		csrr r21, issued2
		sub  r22, r21, r20
		halt
	`)
	r.run(t, 200)
	if got := r.core.Reg(22); got != 2 {
		t.Errorf("issued2 delta = %d, want 2", got)
	}
}

func TestHazStallCountExact(t *testing.T) {
	// One genuine load-use: exactly one hazard bubble.
	r := newTCMRig(t, CoreA(), nil, `
		li   r29, 0x30000000
		csrr r20, hazstall
		lw   r1, 0(r29)
		add  r2, r1, r1
		csrr r21, hazstall
		sub  r22, r21, r20
		halt
	`)
	r.run(t, 200)
	if got := r.core.Reg(22); got != 1 {
		t.Errorf("hazstall delta = %d, want 1", got)
	}
}
