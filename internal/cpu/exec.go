package cpu

import (
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/isa"
)

// openBusValue is what a forwarding mux delivers when a (faulty) select
// code points at a source that does not exist for this lane.
const openBusValue = ^uint64(0)

// stepEX executes the packet in the EX stage. memOld and wbOld are the
// pre-cycle EX/MEM and MEM/WB latches, i.e. the packets issued one and two
// packets earlier — the producers the forwarding network can bypass from.
// memRes carries memOld's pre-MEM-stage result words (the MEM stage fills
// load results into the latch in place before EX runs).
func (c *Core) stepEX(pkt, memOld *packet, memRes *[2]uint64, wbOld *packet) {
	var casVal uint64 // lane 0 result, input to the cascade path
	for lane := 0; lane < 2; lane++ {
		u := &pkt[lane]
		if !u.valid {
			continue
		}
		a, b := c.readOperands(lane, u, memOld, memRes, wbOld, casVal)
		c.execute(u, a, b)
		if lane == 0 {
			casVal = u.result
		}
		if c.trace != nil {
			c.emit(TraceEvent{Kind: "ex", Lane: lane, PC: u.pc, Inst: u.inst, Result: u.result})
		}
	}
}

// readOperands resolves both source operands of u through the forwarding
// network.
func (c *Core) readOperands(lane int, u *uop, memOld *packet, memRes *[2]uint64, wbOld *packet, casVal uint64) (a, b uint64) {
	if u.useA {
		a = c.forward(uint8(lane), 0, u.srcA, u.pairA, u, memOld, memRes, wbOld, u.cascadeA, casVal)
	}
	if u.useB {
		b = c.forward(uint8(lane), 1, u.srcB, u.pairB, u, memOld, memRes, wbOld, u.cascadeB, casVal)
	}
	return a, b
}

// forward selects and reads one operand through the forwarding multiplexer
// for (lane, operand). Selection priority follows program-order recency:
// cascade (same packet) > EX/MEM lane1 > EX/MEM lane0 > MEM/WB lane1 >
// MEM/WB lane0 > register file. Loads in EX/MEM cannot forward (their data
// arrives at the end of MEM); the hazard unit prevents that case with a
// stall, so under fault-free operation it never arises here.
func (c *Core) forward(lane, operand, src uint8, pairOp bool, u *uop, memOld *packet, memRes *[2]uint64, wbOld *packet, cascade bool, casVal uint64) uint64 {
	sel := uint8(fault.PathRF)
	switch {
	case cascade && lane == 1:
		sel = fault.PathCascade
	case c.fwdMatch(fault.PathEXL1, lane, operand, &memOld[1], src, pairOp, false):
		sel = fault.PathEXL1
	case c.fwdMatch(fault.PathEXL0, lane, operand, &memOld[0], src, pairOp, false):
		sel = fault.PathEXL0
	case c.fwdMatch(fault.PathMEML1, lane, operand, &wbOld[1], src, pairOp, true):
		sel = fault.PathMEML1
	case c.fwdMatch(fault.PathMEML0, lane, operand, &wbOld[0], src, pairOp, true):
		sel = fault.PathMEML0
	}
	if c.hooks.Has(fault.SigMuxSel) {
		sel = c.plane.MuxSel(lane, operand, sel)
	}

	var v uint64
	switch sel {
	case fault.PathRF:
		v = c.readRF(src, pairOp)
	case fault.PathEXL0:
		v = memRes[0]
	case fault.PathEXL1:
		v = memRes[1]
	case fault.PathMEML0:
		v = wbOld[0].result
	case fault.PathMEML1:
		v = wbOld[1].result
	case fault.PathCascade:
		if lane == 1 {
			v = casVal
		} else {
			v = openBusValue
		}
	default:
		v = openBusValue
	}
	if c.hooks.Has(fault.SigMuxData) {
		v = c.plane.MuxData(lane, operand, sel, v)
	}
	if sel < fault.NumPaths {
		c.PathUse[lane][operand][sel]++
		c.cov.Inc(coverage.FwdFeat(lane, operand, sel))
	}
	if sel != fault.PathRF && c.trace != nil {
		c.emit(TraceEvent{
			Kind: "fwd", Lane: int(lane), PC: u.pc, Inst: u.inst,
			Operand: int(operand), Path: int(sel),
		})
	}
	return v
}

// fwdMatch decides whether producer p can feed (lane, operand) for source
// register src via the given path. loadsOK is true for MEM/WB paths where
// load data has arrived. Width rules: a 32-bit producer can only feed a
// 32-bit operand; a pair producer can feed a pair operand (full 64-bit
// bypass) or a 32-bit operand reading its *base* register (low word). All
// other overlaps are prevented by the issue-stage width hazard stall and
// resolve through the register file.
func (c *Core) fwdMatch(path, lane, operand uint8, p *uop, src uint8, pairOp, loadsOK bool) bool {
	if !p.valid || !p.writes || p.rd == 0 {
		return false
	}
	if p.isLoad && !loadsOK {
		return false
	}
	if pairOp != p.isPair && pairOp {
		return false // 32-bit producer cannot fill a 64-bit operand
	}
	return c.cmpEq(fault.CmpFwd(path, lane, operand), p.rd, src)
}

func (c *Core) readRF(src uint8, pair bool) uint64 {
	v := uint64(c.regs[src])
	if pair {
		v |= uint64(c.regs[(src+1)&31]) << 32
	}
	return v
}

// execute computes u's result from operand values a and b, raising ICU
// events and redirecting control flow as needed.
func (c *Core) execute(u *uop, a, b uint64) {
	op := u.inst.Op
	imm := u.inst.Imm
	a32, b32 := uint32(a), uint32(b)

	if u.isPair && !c.cfg.Has64 {
		// Cores A/B do not implement the 64-bit extension.
		c.wedged = true
		c.wedgePC = u.pc
		c.halted = true
		c.cov.Inc(coverage.FeatWedge)
		return
	}

	switch op {
	case isa.OpADD:
		u.result = uint64(a32 + b32)
	case isa.OpSUB:
		u.result = uint64(a32 - b32)
	case isa.OpAND:
		u.result = uint64(a32 & b32)
	case isa.OpOR:
		u.result = uint64(a32 | b32)
	case isa.OpXOR:
		u.result = uint64(a32 ^ b32)
	case isa.OpNOR:
		u.result = uint64(^(a32 | b32))
	case isa.OpSLT:
		u.result = boolTo64(int32(a32) < int32(b32))
	case isa.OpSLTU:
		u.result = boolTo64(a32 < b32)
	case isa.OpSLLV:
		u.result = uint64(a32 << (b32 & 31))
	case isa.OpSRLV:
		u.result = uint64(a32 >> (b32 & 31))
	case isa.OpSRAV:
		u.result = uint64(uint32(int32(a32) >> (b32 & 31)))
	case isa.OpMUL:
		u.result = uint64(a32 * b32)
	case isa.OpSLL:
		u.result = uint64(a32 << uint32(imm&31))
	case isa.OpSRL:
		u.result = uint64(a32 >> uint32(imm&31))
	case isa.OpSRA:
		u.result = uint64(uint32(int32(a32) >> uint32(imm&31)))

	case isa.OpADDV:
		sum := a32 + b32
		u.result = uint64(sum)
		if (a32^sum)&(b32^sum)&0x8000_0000 != 0 {
			c.ICU.Raise(fault.EvOverflowAdd)
			c.cov.Inc(coverage.FeatTrapOverflowAdd)
		}
	case isa.OpSUBV:
		diff := a32 - b32
		u.result = uint64(diff)
		if (a32^b32)&(a32^diff)&0x8000_0000 != 0 {
			c.ICU.Raise(fault.EvOverflowSub)
			c.cov.Inc(coverage.FeatTrapOverflowSub)
		}
	case isa.OpMULV:
		prod := int64(int32(a32)) * int64(int32(b32))
		u.result = uint64(uint32(prod))
		if prod != int64(int32(prod)) {
			c.ICU.Raise(fault.EvOverflowMul)
			c.cov.Inc(coverage.FeatTrapOverflowMul)
		}
	case isa.OpDIVV:
		if b32 == 0 {
			u.result = 0
			c.ICU.Raise(fault.EvDivZero)
			c.cov.Inc(coverage.FeatTrapDivZero)
		} else if a32 == 0x8000_0000 && b32 == 0xFFFF_FFFF {
			u.result = uint64(a32) // overflow case: saturate like the HW
		} else {
			u.result = uint64(uint32(int32(a32) / int32(b32)))
		}

	case isa.OpADDP:
		u.result = a + b
	case isa.OpSUBP:
		u.result = a - b
	case isa.OpANDP:
		u.result = a & b
	case isa.OpORP:
		u.result = a | b
	case isa.OpXORP:
		u.result = a ^ b

	case isa.OpADDI:
		u.result = uint64(a32 + uint32(imm))
	case isa.OpANDI:
		u.result = uint64(a32 & uint32(imm))
	case isa.OpORI:
		u.result = uint64(a32 | uint32(imm))
	case isa.OpXORI:
		u.result = uint64(a32 ^ uint32(imm))
	case isa.OpSLTI:
		u.result = boolTo64(int32(a32) < imm)
	case isa.OpLUI:
		u.result = uint64(uint32(imm) << 16)

	case isa.OpLW, isa.OpLB, isa.OpLBU, isa.OpLWP:
		u.memAddr = a32 + uint32(imm)
	case isa.OpSW, isa.OpSB, isa.OpSWP:
		u.memAddr = a32 + uint32(imm)
		u.storeVal = b

	case isa.OpBEQ:
		c.branch(u, a32 == b32)
	case isa.OpBNE:
		c.branch(u, a32 != b32)
	case isa.OpBLT:
		c.branch(u, int32(a32) < int32(b32))
	case isa.OpBGE:
		c.branch(u, int32(a32) >= int32(b32))

	case isa.OpJ:
		c.cov.Inc(coverage.FeatJump)
		c.redirect(u.pc + 4 + uint32(imm))
	case isa.OpJAL:
		u.result = uint64(u.pc + 4)
		c.cov.Inc(coverage.FeatJump)
		c.redirect(u.pc + 4 + uint32(imm))
	case isa.OpJR:
		c.cov.Inc(coverage.FeatJump)
		c.redirect(a32)
	case isa.OpJALR:
		u.result = uint64(u.pc + 4)
		c.cov.Inc(coverage.FeatJump)
		c.redirect(a32)
	case isa.OpRFE:
		c.cov.Inc(coverage.FeatJump)
		c.redirect(c.ICU.ReturnFromException())

	case isa.OpCSRR:
		u.result = uint64(c.readCSR(imm))
	case isa.OpCSRW:
		c.writeCSR(imm, a32)
	case isa.OpCINV:
		c.invalidate(imm)
	case isa.OpHALT:
		c.halted = true
	case isa.OpNOP:
		// nothing
	default:
		// Unreachable for decoded instructions; treat as wedge.
		c.wedged = true
		c.wedgePC = u.pc
		c.halted = true
		c.cov.Inc(coverage.FeatWedge)
	}
}

func (c *Core) branch(u *uop, taken bool) {
	if taken {
		c.cov.Inc(coverage.FeatBranchTaken)
		c.redirect(u.pc + 4 + uint32(u.inst.Imm))
	} else {
		c.cov.Inc(coverage.FeatBranchNotTaken)
	}
}

func (c *Core) readCSR(n int32) uint32 {
	switch n {
	case isa.CsrCycle, isa.CsrInstret, isa.CsrIFStall,
		isa.CsrMemStall, isa.CsrHazStall, isa.CsrIssued2:
		v := uint32(c.counters[n])
		if c.hooks.Has(fault.SigCntBit) {
			v = c.plane.CounterRead(uint8(n), v)
		}
		return v
	case isa.CsrICause:
		return c.ICU.Cause()
	case isa.CsrIDist:
		return c.ICU.Dist()
	case isa.CsrIEPC:
		return c.ICU.EPC()
	case isa.CsrIEnable:
		return c.ICU.Enable()
	case isa.CsrIPend:
		return c.ICU.PendingMask()
	case isa.CsrIVec:
		return c.ICU.Vector()
	case isa.CsrCoreID:
		return uint32(c.cfg.CoreID)
	}
	return 0
}

func (c *Core) writeCSR(n int32, v uint32) {
	switch n {
	case isa.CsrIEnable:
		c.ICU.SetEnable(v)
	case isa.CsrIVec:
		c.ICU.SetVector(v)
	case isa.CsrIPend:
		c.ICU.ClearPending(v)
	}
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
