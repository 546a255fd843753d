package isa

import "fmt"

// Op identifies an operation. The zero value is OpInvalid so that
// uninitialised memory decodes to an illegal instruction.
type Op uint8

// Operation set. R-type ALU operations share the RTYPE major opcode and are
// distinguished by a funct field; every other Op maps to its own major
// opcode. See encode.go for the binary layout.
const (
	OpInvalid Op = iota

	// R-type ALU (register-register).
	OpADD
	OpSUB
	OpAND
	OpOR
	OpXOR
	OpNOR
	OpSLT
	OpSLTU
	OpSLLV // shift left by register
	OpSRLV
	OpSRAV
	OpMUL

	// R-type shifts by immediate amount (shamt encoded in the rs2 field).
	OpSLL
	OpSRL
	OpSRA

	// R-type overflow/trap-raising arithmetic. These raise synchronous
	// imprecise interrupt events towards the ICU (see internal/icu).
	OpADDV // raises EvOverflowAdd on signed overflow
	OpSUBV // raises EvOverflowSub on signed overflow
	OpMULV // raises EvOverflowMul when the 64-bit product does not fit 32 bits
	OpDIVV // raises EvDivideByZero when rs2 == 0

	// R-type paired-register 64-bit extension (core C only). A register
	// pair (r[n], r[n+1]) holds the (low, high) words of a 64-bit value.
	OpADDP
	OpSUBP
	OpANDP
	OpORP
	OpXORP

	// R-type system.
	OpJR
	OpRFE  // return from exception
	OpHALT // stop the core
	OpNOP

	// I-type ALU.
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLTI
	OpLUI // rd = imm16 << 16

	// Memory. LWP/SWP move register pairs (64 bits, core C only).
	OpLW
	OpSW
	OpLB
	OpLBU
	OpSB
	OpLWP
	OpSWP

	// Control flow. Branch offsets are in bytes relative to the address of
	// the instruction after the branch.
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpJ
	OpJAL
	OpJALR

	// CSR access and cache control.
	OpCSRR // rd = csr[imm]
	OpCSRW // csr[imm] = rs1
	OpCINV // invalidate caches; imm selects I(1), D(2) or both(3)

	opMax // number of ops; keep last
)

// NumOps reports how many distinct operations the ISA defines (excluding
// OpInvalid).
const NumOps = int(opMax) - 1

var opNames = [...]string{
	OpInvalid: "invalid",
	OpADD:     "add", OpSUB: "sub", OpAND: "and", OpOR: "or",
	OpXOR: "xor", OpNOR: "nor", OpSLT: "slt", OpSLTU: "sltu",
	OpSLLV: "sllv", OpSRLV: "srlv", OpSRAV: "srav", OpMUL: "mul",
	OpSLL: "sll", OpSRL: "srl", OpSRA: "sra",
	OpADDV: "addv", OpSUBV: "subv", OpMULV: "mulv", OpDIVV: "divv",
	OpADDP: "addp", OpSUBP: "subp", OpANDP: "andp", OpORP: "orp", OpXORP: "xorp",
	OpJR: "jr", OpRFE: "rfe", OpHALT: "halt", OpNOP: "nop",
	OpADDI: "addi", OpANDI: "andi", OpORI: "ori", OpXORI: "xori",
	OpSLTI: "slti", OpLUI: "lui",
	OpLW: "lw", OpSW: "sw", OpLB: "lb", OpLBU: "lbu", OpSB: "sb",
	OpLWP: "lwp", OpSWP: "swp",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpJ: "j", OpJAL: "jal", OpJALR: "jalr",
	OpCSRR: "csrr", OpCSRW: "csrw", OpCINV: "cinv",
}

// String returns the assembler mnemonic for op.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op names a defined operation.
func (op Op) Valid() bool { return op > OpInvalid && op < opMax }

// Inst is a decoded instruction. Fields that a given operation does not use
// are zero. Imm carries sign-extended immediates, branch/jump offsets, shift
// amounts, CSR numbers and CINV selectors depending on the operation.
type Inst struct {
	Op  Op
	Rd  uint8 // destination register (0..31)
	Rs1 uint8 // first source register
	Rs2 uint8 // second source register
	Imm int32
}

// Format classifies an operation's operand shape for encoding, assembly
// parsing and hazard analysis.
type Format uint8

const (
	FmtNone   Format = iota // nop, halt, rfe
	FmtR                    // rd, rs1, rs2
	FmtRShamt               // rd, rs1, shamt
	FmtI                    // rd, rs1, imm
	FmtLui                  // rd, imm
	FmtMem                  // rd/rs2, imm(rs1)
	FmtBranch               // rs1, rs2, offset
	FmtJump                 // target offset
	FmtJR                   // rs1
	FmtJALR                 // rd, rs1
	FmtCSRR                 // rd, csr
	FmtCSRW                 // csr, rs1
	FmtCINV                 // selector
)

var opFormats = [...]Format{
	OpADD: FmtR, OpSUB: FmtR, OpAND: FmtR, OpOR: FmtR, OpXOR: FmtR,
	OpNOR: FmtR, OpSLT: FmtR, OpSLTU: FmtR, OpSLLV: FmtR, OpSRLV: FmtR,
	OpSRAV: FmtR, OpMUL: FmtR,
	OpSLL: FmtRShamt, OpSRL: FmtRShamt, OpSRA: FmtRShamt,
	OpADDV: FmtR, OpSUBV: FmtR, OpMULV: FmtR, OpDIVV: FmtR,
	OpADDP: FmtR, OpSUBP: FmtR, OpANDP: FmtR, OpORP: FmtR, OpXORP: FmtR,
	OpJR: FmtJR, OpRFE: FmtNone, OpHALT: FmtNone, OpNOP: FmtNone,
	OpADDI: FmtI, OpANDI: FmtI, OpORI: FmtI, OpXORI: FmtI, OpSLTI: FmtI,
	OpLUI: FmtLui,
	OpLW:  FmtMem, OpSW: FmtMem, OpLB: FmtMem, OpLBU: FmtMem, OpSB: FmtMem,
	OpLWP: FmtMem, OpSWP: FmtMem,
	OpBEQ: FmtBranch, OpBNE: FmtBranch, OpBLT: FmtBranch, OpBGE: FmtBranch,
	OpJ: FmtJump, OpJAL: FmtJump, OpJALR: FmtJALR,
	OpCSRR: FmtCSRR, OpCSRW: FmtCSRW, OpCINV: FmtCINV,
}

// FormatOf returns the operand format of op.
func FormatOf(op Op) Format {
	if int(op) < len(opFormats) {
		return opFormats[op]
	}
	return FmtNone
}

// Classification helpers used by the pipeline's issue and hazard logic.

// IsLoad reports whether op reads data memory.
func (op Op) IsLoad() bool {
	return op == OpLW || op == OpLB || op == OpLBU || op == OpLWP
}

// IsStore reports whether op writes data memory.
func (op Op) IsStore() bool { return op == OpSW || op == OpSB || op == OpSWP }

// IsMem reports whether op accesses data memory.
func (op Op) IsMem() bool { return op.IsLoad() || op.IsStore() }

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool {
	return op == OpBEQ || op == OpBNE || op == OpBLT || op == OpBGE
}

// IsJump reports whether op unconditionally redirects control flow.
func (op Op) IsJump() bool {
	return op == OpJ || op == OpJAL || op == OpJR || op == OpJALR || op == OpRFE
}

// IsControl reports whether op can redirect control flow.
func (op Op) IsControl() bool { return op.IsBranch() || op.IsJump() || op == OpHALT }

// IsPair reports whether op belongs to the 64-bit paired-register extension
// (legal only on cores with Has64 set, i.e. core C).
func (op Op) IsPair() bool {
	switch op {
	case OpADDP, OpSUBP, OpANDP, OpORP, OpXORP, OpLWP, OpSWP:
		return true
	}
	return false
}

// IsSystem reports whether op must issue alone (serialising).
func (op Op) IsSystem() bool {
	switch op {
	case OpCSRR, OpCSRW, OpCINV, OpRFE, OpHALT:
		return true
	}
	return false
}

// CanRaiseEvent reports whether op may raise a synchronous imprecise
// interrupt event towards the ICU.
func (op Op) CanRaiseEvent() bool {
	switch op {
	case OpADDV, OpSUBV, OpMULV, OpDIVV:
		return true
	}
	return false
}

// WritesReg reports whether the instruction writes a general-purpose
// register (writes to r0 are discarded by the register file but still count
// as "writes" for encoding purposes; hazard logic must additionally check
// Rd != 0).
func (i Inst) WritesReg() bool {
	switch FormatOf(i.Op) {
	case FmtR, FmtRShamt, FmtI, FmtLui, FmtCSRR, FmtJALR:
		return true
	case FmtMem:
		return i.Op.IsLoad()
	case FmtJump:
		return i.Op == OpJAL
	}
	return false
}

// SrcRegs returns the general-purpose source registers the instruction
// reads, as (reg, used) pairs for up to two operands. Paired operations also
// read/write reg+1; the pipeline widens those accesses itself.
func (i Inst) SrcRegs() (a uint8, useA bool, b uint8, useB bool) {
	switch FormatOf(i.Op) {
	case FmtR:
		return i.Rs1, true, i.Rs2, true
	case FmtRShamt, FmtI:
		return i.Rs1, true, 0, false
	case FmtMem:
		if i.Op.IsStore() {
			return i.Rs1, true, i.Rs2, true // base, data
		}
		return i.Rs1, true, 0, false
	case FmtBranch:
		return i.Rs1, true, i.Rs2, true
	case FmtJR, FmtJALR:
		return i.Rs1, true, 0, false
	case FmtCSRW:
		return i.Rs1, true, 0, false
	}
	return 0, false, 0, false
}

// Reg register-name table: r0..r31 with conventional aliases used by the
// SBST generators.
const (
	RegZero = 0  // hardwired zero
	RegSig  = 28 // software MISR signature accumulator
	RegTmp0 = 26 // scratch (MISR expansion)
	RegTmp1 = 27 // scratch (MISR expansion)
	RegBase = 29 // data base pointer
	RegLoop = 30 // loading/execution loop counter
	RegLink = 31 // subroutine link
)

// CINV selector values (Imm field of OpCINV).
const (
	CinvI    = 1
	CinvD    = 2
	CinvBoth = 3
)

// InstBytes is the size of one encoded instruction in memory.
const InstBytes = 4
