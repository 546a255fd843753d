package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func decode(t *testing.T, w uint32) isa.Inst {
	t.Helper()
	i, err := isa.Decode(w)
	if err != nil {
		t.Fatalf("decode 0x%08x: %v", w, err)
	}
	return i
}

func TestBuilderBasicLayout(t *testing.T) {
	b := NewBuilder()
	b.Label("start")
	b.I(isa.OpADDI, 1, 0, 5)
	b.R(isa.OpADD, 2, 1, 1)
	b.Halt()
	p, err := b.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != 0x1000 || len(p.Words) != 3 {
		t.Fatalf("base %x len %d", p.Base, len(p.Words))
	}
	if a, _ := p.Addr("start"); a != 0x1000 {
		t.Errorf("start at 0x%x", a)
	}
	if got := decode(t, p.Words[0]); got != (isa.Inst{Op: isa.OpADDI, Rd: 1, Imm: 5}) {
		t.Errorf("word0 = %v", got)
	}
}

func TestBuilderBranchFixup(t *testing.T) {
	b := NewBuilder()
	b.Label("top")
	b.I(isa.OpADDI, 1, 1, 1)         // 0x0
	b.Branch(isa.OpBNE, 1, 2, "top") // 0x4: offset = 0x0 - 0x8 = -8
	b.Branch(isa.OpBEQ, 1, 2, "end") // 0x8: offset = 0x10 - 0xc = +4
	b.Nop()                          // 0xc
	b.Label("end")
	b.Halt() // 0x10
	p, err := b.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if i := decode(t, p.Words[1]); i.Imm != -8 {
		t.Errorf("bne offset = %d, want -8", i.Imm)
	}
	if i := decode(t, p.Words[2]); i.Imm != 4 {
		t.Errorf("beq offset = %d, want 4", i.Imm)
	}
}

func TestBuilderLabelAtEnd(t *testing.T) {
	b := NewBuilder()
	b.Jump(isa.OpJ, "end")
	b.Label("end")
	p, err := b.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if i := decode(t, p.Words[0]); i.Imm != 0 {
		t.Errorf("jump to next inst offset = %d, want 0", i.Imm)
	}
	if a, _ := p.Addr("end"); a != 4 {
		t.Errorf("end = 0x%x, want 4", a)
	}
}

func TestBuilderAlign(t *testing.T) {
	b := NewBuilder()
	b.Nop()
	b.Align(16)
	b.Label("aligned")
	b.Halt()
	p, err := b.Assemble(0x100)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Addr("aligned")
	if a != 0x110 {
		t.Errorf("aligned at 0x%x, want 0x110", a)
	}
	if len(p.Words) != 5 { // nop + 3 pad nops + halt
		t.Errorf("len = %d, want 5", len(p.Words))
	}
	for _, w := range p.Words[1:4] {
		if decode(t, w).Op != isa.OpNOP {
			t.Errorf("padding is %v, want nop", decode(t, w))
		}
	}
}

func TestBuilderLi(t *testing.T) {
	cases := []struct {
		v    uint32
		want int // instruction count
	}{
		{0, 1}, {5, 1}, {0xFFFF, 1}, {0x10000, 1}, {0xABCD0000, 1},
		{0x12345678, 2}, {0xFFFFFFFF, 2},
	}
	for _, c := range cases {
		b := NewBuilder()
		b.Li(5, c.v)
		p, err := b.Assemble(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Words) != c.want {
			t.Errorf("Li(%#x) used %d instructions, want %d", c.v, len(p.Words), c.want)
		}
	}
}

func TestBuilderLiAddrResolves(t *testing.T) {
	b := NewBuilder()
	b.LiAddr(3, "data")
	b.Halt()
	b.Label("data")
	b.Word(0x12345678)
	p, err := b.Assemble(0x00040000)
	if err != nil {
		t.Fatal(err)
	}
	lui := decode(t, p.Words[0])
	ori := decode(t, p.Words[1])
	addr, _ := p.Addr("data")
	got := uint32(lui.Imm)<<16 | uint32(ori.Imm)
	if got != addr {
		t.Errorf("la materialises 0x%x, want 0x%x", got, addr)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Label("x")
	if _, err := b.Assemble(0); err == nil {
		t.Error("duplicate label accepted")
	}
	b = NewBuilder()
	b.Jump(isa.OpJ, "nowhere")
	if _, err := b.Assemble(0); err == nil {
		t.Error("undefined label accepted")
	}
	b = NewBuilder()
	if _, err := b.Assemble(2); err == nil {
		t.Error("misaligned base accepted")
	}
	b = NewBuilder()
	b.Align(3)
	if _, err := b.Assemble(0); err == nil {
		t.Error("bad alignment accepted")
	}
}

func TestMisrExpansion(t *testing.T) {
	b := NewBuilder()
	b.Misr(9)
	p, err := b.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Words) != MisrCost {
		t.Fatalf("misr expands to %d words, want %d", len(p.Words), MisrCost)
	}
	// sig' = rotl(sig,1) ^ r9: check op sequence.
	wantOps := []isa.Op{isa.OpSLL, isa.OpSRL, isa.OpOR, isa.OpXOR}
	for k, w := range p.Words {
		if decode(t, w).Op != wantOps[k] {
			t.Errorf("misr[%d] = %v, want %v", k, decode(t, w).Op, wantOps[k])
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `
; a small but representative program
start:
    li   r1, 0x20000000     # data base
    addi r2, r0, 10
    add  r3, r2, r2
    sll  r4, r3, 2
    sw   r3, 4(r1)
    lw   r5, 4(r1)
loop:
    addi r2, r2, -1
    bne  r2, r0, loop
    csrr r6, cycle
    csrw ivec, r1
    cinv both
    misr r5
    j    end
    .align 8
table:
    .word 0xdeadbeef
end:
    halt
`
	b, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Addr("table"); err != nil {
		t.Error(err)
	}
	ta, _ := p.Addr("table")
	if ta%8 != 0 {
		t.Errorf("table not aligned: 0x%x", ta)
	}
	if p.Words[ta/4] != 0xdeadbeef {
		t.Errorf("table word = 0x%x", p.Words[ta/4])
	}
	// li of a value with zero low half must be a single lui.
	if i := decode(t, p.Words[0]); i.Op != isa.OpLUI || uint32(i.Imm) != 0x2000 {
		t.Errorf("li expanded wrong: %v", i)
	}
	// The bne at "loop"+4 must branch back 8 bytes.
	la, _ := p.Addr("loop")
	if i := decode(t, p.Words[la/4+1]); i.Op != isa.OpBNE || i.Imm != -8 {
		t.Errorf("loop branch: %v", i)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1, r2, r3",
		"add r1, r2",
		"add r1, r2, r99",
		"lw r1, r2, r3",
		"lw r1, 4[r2]",
		"beq r1, r2, 12", // numeric branch targets unsupported
		"9lab: nop",
		"li r1",
		"csrr r1, nosuchcsr???",
		".word",
		".align x",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseCaseAndComments(t *testing.T) {
	b, err := Parse("  ADD r1, r2, r3 ; comment\n\n# full-line comment\nL1: NOP")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Words) != 2 {
		t.Fatalf("got %d words", len(p.Words))
	}
	if decode(t, p.Words[0]).Op != isa.OpADD {
		t.Error("case-insensitive mnemonic failed")
	}
}

func TestSpaceAndOrg(t *testing.T) {
	b, err := Parse(`
		nop
		.space 8
	tbl:
		.word 7
		.org 0x40
	late:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := p.Addr("tbl"); a != 12 {
		t.Errorf("tbl = %#x, want 0xc", a)
	}
	if p.Words[1] != 0 || p.Words[2] != 0 {
		t.Error("space not zeroed")
	}
	if a, _ := p.Addr("late"); a != 0x40 {
		t.Errorf("late = %#x, want 0x40", a)
	}
	if p.Size() != 0x44 {
		t.Errorf("size = %#x", p.Size())
	}
}

func TestOrgBackwardRejected(t *testing.T) {
	b := NewBuilder()
	b.Nop()
	b.Nop()
	b.Org(4)
	if _, err := b.Assemble(0); err == nil {
		t.Error("backward .org accepted")
	}
	b2 := NewBuilder()
	b2.Space(-4)
	if _, err := b2.Assemble(0); err == nil {
		t.Error("negative .space accepted")
	}
}

func TestListing(t *testing.T) {
	b, err := Parse("start:\n addi r1, r0, 3\nend:\n halt")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Assemble(0x100)
	if err != nil {
		t.Fatal(err)
	}
	lst := p.Listing()
	for _, want := range []string{"start:", "end:", "00000100", "addi r1, r0, 3", "halt"} {
		if !strings.Contains(lst, want) {
			t.Errorf("listing missing %q:\n%s", want, lst)
		}
	}
}
