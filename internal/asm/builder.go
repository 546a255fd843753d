package asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Builder accumulates instructions and data, with label-based fixups that
// are resolved when Assemble is called. The zero value is not ready for use;
// call NewBuilder.
type Builder struct {
	items  []item
	labels map[string]int // label -> item index it precedes
	errs   []error
	nAuto  int // generator for unique local labels
}

type itemKind uint8

const (
	itemInst itemKind = iota
	itemWord          // raw data word
	itemAlign
	itemOrg
)

type item struct {
	kind itemKind
	inst isa.Inst
	// arg is the data word of an itemWord, the byte boundary of an
	// itemAlign and the absolute target address of an itemOrg.
	arg uint32

	// Label fixups, applied at assembly time.
	immLabel string // branch/jump target or absolute-address label
	immMode  fixMode
}

type fixMode uint8

const (
	fixNone fixMode = iota
	fixRel          // PC-relative byte offset from the *next* instruction
	fixAbsHi
	fixAbsLo
)

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// Reset empties the builder for another program, keeping the space it
// has grown so far. Programs it assembled before stay valid: they share
// nothing with the builder.
func (b *Builder) Reset() {
	b.items = b.items[:0]
	clear(b.labels)
	b.errs = nil
	b.nAuto = 0
}

// Label defines a label at the current position. Defining the same label
// twice records an error reported by Assemble.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("asm: duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.items)
}

// AutoLabel returns a fresh label name unique within this builder.
func (b *Builder) AutoLabel(prefix string) string {
	b.nAuto++
	return "." + prefix + strconv.Itoa(b.nAuto)
}

// Emit appends a fully-formed instruction.
func (b *Builder) Emit(i isa.Inst) { b.items = append(b.items, item{kind: itemInst, inst: i}) }

// Word appends a raw 32-bit data word at the current position.
func (b *Builder) Word(w uint32) { b.items = append(b.items, item{kind: itemWord, arg: w}) }

// Align pads with NOPs (encoded, so the padding is executable) until the
// current position is a multiple of n bytes. n must be a power of two and a
// multiple of 4.
func (b *Builder) Align(n int) {
	if n < 4 || n&(n-1) != 0 {
		b.errs = append(b.errs, fmt.Errorf("asm: bad alignment %d", n))
		return
	}
	b.items = append(b.items, item{kind: itemAlign, arg: uint32(n)})
}

// Space reserves n bytes of zero-initialised data (n must be a multiple of
// the word size).
func (b *Builder) Space(n int) {
	if n < 0 || n%isa.InstBytes != 0 {
		b.errs = append(b.errs, fmt.Errorf("asm: bad space size %d", n))
		return
	}
	for i := 0; i < n/isa.InstBytes; i++ {
		b.Word(0)
	}
}

// Org pads with NOPs up to absolute address addr; assembly fails if the
// program has already passed it.
func (b *Builder) Org(addr uint32) {
	b.items = append(b.items, item{kind: itemOrg, arg: addr})
}

// Convenience emitters. They keep generator code close to assembly text.

func (b *Builder) R(op isa.Op, rd, rs1, rs2 uint8) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

func (b *Builder) I(op isa.Op, rd, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shift emits a shift-by-immediate.
func (b *Builder) Shift(op isa.Op, rd, rs1 uint8, shamt int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: shamt})
}

// Load emits a load: rd <- [rs1+off].
func (b *Builder) Load(op isa.Op, rd, base uint8, off int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: off})
}

// Store emits a store: [base+off] <- rs2.
func (b *Builder) Store(op isa.Op, rs2, base uint8, off int32) {
	b.Emit(isa.Inst{Op: op, Rs2: rs2, Rs1: base, Imm: off})
}

// Branch emits a conditional branch to label.
func (b *Builder) Branch(op isa.Op, rs1, rs2 uint8, label string) {
	b.items = append(b.items, item{
		kind: itemInst, inst: isa.Inst{Op: op, Rs1: rs1, Rs2: rs2},
		immLabel: label, immMode: fixRel,
	})
}

// Jump emits J or JAL to label.
func (b *Builder) Jump(op isa.Op, label string) {
	b.items = append(b.items, item{
		kind: itemInst, inst: isa.Inst{Op: op},
		immLabel: label, immMode: fixRel,
	})
}

// Nop emits a single NOP.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.OpNOP}) }

// Halt emits HALT.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.OpHALT}) }

// CsrR emits csrr rd, csr.
func (b *Builder) CsrR(rd uint8, csr int32) {
	b.Emit(isa.Inst{Op: isa.OpCSRR, Rd: rd, Imm: csr})
}

// CsrW emits csrw csr, rs1.
func (b *Builder) CsrW(csr int32, rs1 uint8) {
	b.Emit(isa.Inst{Op: isa.OpCSRW, Rs1: rs1, Imm: csr})
}

// Cinv emits a cache-invalidate for the given selector (isa.CinvI/D/Both).
func (b *Builder) Cinv(sel int32) { b.Emit(isa.Inst{Op: isa.OpCINV, Imm: sel}) }

// Pseudo-instructions.

// Li loads a full 32-bit constant into rd (LUI+ORI pair, or a single
// instruction when the value permits).
func (b *Builder) Li(rd uint8, v uint32) {
	lo := v & 0xFFFF
	hi := v >> 16
	switch {
	case hi == 0:
		b.I(isa.OpORI, rd, isa.RegZero, int32(lo))
	case lo == 0:
		b.I(isa.OpLUI, rd, 0, int32(hi))
	default:
		b.I(isa.OpLUI, rd, 0, int32(hi))
		b.I(isa.OpORI, rd, rd, int32(lo))
	}
}

// LiAddr loads the absolute address of label into rd (always two
// instructions so routine sizes don't depend on where they are linked).
func (b *Builder) LiAddr(rd uint8, label string) {
	b.items = append(b.items, item{
		kind: itemInst, inst: isa.Inst{Op: isa.OpLUI, Rd: rd},
		immLabel: label, immMode: fixAbsHi,
	})
	b.items = append(b.items, item{
		kind: itemInst, inst: isa.Inst{Op: isa.OpORI, Rd: rd, Rs1: rd},
		immLabel: label, immMode: fixAbsLo,
	})
}

// Misr folds rs into the software MISR signature register (isa.RegSig):
//
//	sig = (sig rotl 1) ^ rs
//
// expanded into four real instructions using the reserved temporaries.
func (b *Builder) Misr(rs uint8) {
	b.Shift(isa.OpSLL, isa.RegTmp0, isa.RegSig, 1)
	b.Shift(isa.OpSRL, isa.RegTmp1, isa.RegSig, 31)
	b.R(isa.OpOR, isa.RegSig, isa.RegTmp0, isa.RegTmp1)
	b.R(isa.OpXOR, isa.RegSig, isa.RegSig, rs)
}

// MisrCost is the number of instructions Misr expands to.
const MisrCost = 4

// Len returns the current size of the program in bytes, assuming no
// alignment padding is still pending (alignment items are counted as zero
// until Assemble; use Assemble().Size for the exact figure).
func (b *Builder) Len() int {
	n := 0
	for _, it := range b.items {
		if it.kind != itemAlign {
			n += isa.InstBytes
		}
	}
	return n
}

// Program is an assembled, relocated memory image.
type Program struct {
	Base   uint32   // load address of Words[0]
	Words  []uint32 // encoded instructions and data
	Labels map[string]uint32
}

// Size returns the image size in bytes.
func (p *Program) Size() int { return len(p.Words) * isa.InstBytes }

// Addr returns the absolute address of a label, or an error.
func (p *Program) Addr(label string) (uint32, error) {
	a, ok := p.Labels[label]
	if !ok {
		return 0, fmt.Errorf("asm: unknown label %q", label)
	}
	return a, nil
}

// Assemble lays the program out at the given base address, resolves labels
// and encodes all instructions.
func (b *Builder) Assemble(base uint32) (*Program, error) {
	if base%uint32(isa.InstBytes) != 0 {
		return nil, fmt.Errorf("asm: base address 0x%x not word aligned", base)
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	// Pass 1: place items, compute addresses.
	addrOf := make([]uint32, len(b.items))
	pc := base
	for idx, it := range b.items {
		addrOf[idx] = pc // for align/org items: address where padding starts
		switch it.kind {
		case itemAlign:
			for pc%it.arg != 0 {
				pc += uint32(isa.InstBytes)
			}
		case itemOrg:
			if it.arg < pc || it.arg%uint32(isa.InstBytes) != 0 {
				return nil, fmt.Errorf("asm: .org %#x behind current address %#x or misaligned", it.arg, pc)
			}
			pc = it.arg
		default:
			pc += uint32(isa.InstBytes)
		}
	}
	end := pc
	labelAddr := make(map[string]uint32, len(b.labels))
	for name, idx := range b.labels {
		if idx < len(b.items) {
			labelAddr[name] = addrOf[idx]
		} else {
			labelAddr[name] = end
		}
	}
	// Pass 2: fix up and encode.
	words := make([]uint32, 0, (end-base)/uint32(isa.InstBytes))
	nopWord := isa.MustEncode(isa.Inst{Op: isa.OpNOP})
	for idx, it := range b.items {
		switch it.kind {
		case itemAlign:
			for a := addrOf[idx]; a%it.arg != 0; a += uint32(isa.InstBytes) {
				words = append(words, nopWord)
			}
		case itemOrg:
			for a := addrOf[idx]; a < it.arg; a += uint32(isa.InstBytes) {
				words = append(words, nopWord)
			}
		case itemWord:
			words = append(words, it.arg)
		case itemInst:
			inst := it.inst
			if it.immMode != fixNone {
				target, ok := labelAddr[it.immLabel]
				if !ok {
					return nil, fmt.Errorf("asm: undefined label %q", it.immLabel)
				}
				switch it.immMode {
				case fixRel:
					inst.Imm = int32(target) - int32(addrOf[idx]+uint32(isa.InstBytes))
				case fixAbsHi:
					inst.Imm = int32(target >> 16)
				case fixAbsLo:
					inst.Imm = int32(target & 0xFFFF)
				}
			}
			w, err := isa.Encode(inst)
			if err != nil {
				return nil, fmt.Errorf("asm: at 0x%x: %w", addrOf[idx], err)
			}
			words = append(words, w)
		}
	}
	return &Program{Base: base, Words: words, Labels: labelAddr}, nil
}

// Listing renders the program as annotated assembly: address, encoded
// word, disassembly, with label definitions interleaved.
func (p *Program) Listing() string {
	byAddr := make(map[uint32][]string)
	for name, addr := range p.Labels {
		byAddr[addr] = append(byAddr[addr], name)
	}
	var sb strings.Builder
	for i, w := range p.Words {
		addr := p.Base + uint32(i)*uint32(isa.InstBytes)
		if names, ok := byAddr[addr]; ok {
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(&sb, "%s:\n", n)
			}
		}
		fmt.Fprintf(&sb, "  %08x:  %08x  %s\n", addr, w, isa.Disasm(w))
	}
	return sb.String()
}
