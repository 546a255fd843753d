package cpu

import (
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/isa"
)

// stepFetch keeps the fetch queue topped up, requesting 8-byte chunks
// (one potential issue packet) through the instruction-side memory client.
func (c *Core) stepFetch() {
	if c.fetchBusy {
		done, data := c.imem.Tick()
		if !done {
			return
		}
		c.fetchBusy = false
		if c.discardFetch {
			c.discardFetch = false
		} else {
			c.enqueue(data)
			c.fetchAddr += 8
		}
	}
	for !c.fetchBusy && !c.halted && c.fetchN <= fetchQCap-2 {
		c.imem.Start(c.fetchAddr, false, 0, 8)
		done, data := c.imem.Tick()
		if !done {
			c.fetchBusy = true
			return
		}
		c.enqueue(data)
		c.fetchAddr += 8
	}
}

func (c *Core) enqueue(chunk uint64) {
	for k := 0; k < 2; k++ {
		pc := c.fetchAddr + uint32(k)*4
		if pc < c.skipBelow {
			continue
		}
		word := uint32(chunk >> (32 * k))
		e := &c.decCache[(word^word>>11^word>>22)&(decCacheSize-1)]
		if !e.valid || e.word != word {
			*e = decEntry{word: word, valid: true, decoded: decode(word)}
		}
		c.fetchQ[(int(c.fetchHead)+c.fetchN)&(fetchQSize-1)] = fetched{pc: pc, decoded: e.decoded}
		c.fetchN++
		if c.trace != nil {
			c.emit(TraceEvent{Kind: "fetch", PC: pc, Inst: e.inst, Lane: c.fetchN})
		}
	}
}

// headFetch returns the first queue entry; the queue must not be empty.
// popFetch keeps fetchHead below fetchQSize already: the mask is there so
// the compiler drops the bounds check here and where headFetch inlines.
func (c *Core) headFetch() *fetched { return &c.fetchQ[c.fetchHead&(fetchQSize-1)] }

// popFetch removes the first queue entry.
func (c *Core) popFetch() {
	c.fetchHead = (c.fetchHead + 1) & (fetchQSize - 1)
	c.fetchN--
}

// stepIssue forms the next issue packet into exPkt. exOld is the packet
// that was in EX this cycle (it is in MEM next cycle; its loads cannot
// forward yet, which is the load-use hazard).
func (c *Core) stepIssue(exOld *packet) {
	if c.halted {
		c.stalled = true
		return
	}
	if c.ICU.WantInterrupt() {
		vec := c.ICU.TakeInterrupt(c.nextIssuePC)
		c.cov.Inc(coverage.FeatInterrupt)
		c.redirect(vec)
		return
	}
	if c.fetchN == 0 {
		// The pipeline wanted to issue but fetch could not supply: this is
		// the instruction-side stall the paper's Table I counts. The next
		// cycle can be quiet once the packets ahead have drained.
		c.stalled = !exOld.any() && !c.wbPkt.any()
		c.bump(fault.CntIFStall)
		c.cov.Inc(coverage.FeatStallIF)
		if c.trace != nil {
			c.emit(TraceEvent{Kind: "stall", Why: "if"})
		}
		return
	}
	i0 := c.headFetch()
	if i0.bad {
		c.wedged = true
		c.wedgePC = i0.pc
		c.halted = true
		c.cov.Inc(coverage.FeatWedge)
		return
	}
	// Load-use: a source of the candidate matches a load destination in
	// the packet entering MEM. Width-mismatch hazards (pair/single
	// overlaps the 32/64-bit bypass network cannot deliver) stall the same
	// way.
	if c.loadUseHazard(exOld, 0, &i0.decoded) || c.widthHazard(exOld, &i0.decoded) {
		c.bump(fault.CntHazStall)
		c.cov.Inc(coverage.FeatStallHaz)
		if c.trace != nil {
			c.emit(TraceEvent{Kind: "stall", Why: "haz"})
		}
		return
	}

	first := &c.exPkt[0]
	c.mkUop(first, i0)
	c.popFetch()
	c.nextIssuePC = first.pc + 4
	c.cov.Inc(coverage.FeatIssue1)
	if c.trace != nil {
		c.emit(TraceEvent{Kind: "issue", Lane: 0, PC: first.pc, Inst: first.inst})
	}

	if first.alone {
		return // serialising and pair-width instructions issue alone
	}
	if c.fetchN == 0 {
		return
	}
	i1 := c.headFetch()
	ok, casA, casB := c.canDualIssue(exOld, &first.decoded, &i1.decoded)
	if !ok {
		return
	}
	second := &c.exPkt[1]
	c.mkUop(second, i1)
	second.cascadeA = casA
	second.cascadeB = casB
	c.popFetch()
	c.nextIssuePC = second.pc + 4
	c.bump(fault.CntIssued2)
	if c.cov != nil {
		c.cov.Inc(coverage.FeatIssue2)
		if casA {
			c.cov.Inc(coverage.FeatCascadeA)
		}
		if casB {
			c.cov.Inc(coverage.FeatCascadeB)
		}
	}
	if c.trace != nil {
		c.emit(TraceEvent{Kind: "issue", Lane: 1, PC: second.pc, Inst: second.inst})
	}
}

// canDualIssue decides whether second may share a packet with first and
// whether its operands use the intra-packet cascade path.
func (c *Core) canDualIssue(exOld *packet, first, second *decoded) (ok, casA, casB bool) {
	if second.bad || second.alone {
		return false, false, false
	}
	if first.isMem && second.isMem {
		return false, false, false // single load/store unit
	}
	if c.loadUseHazard(exOld, 1, second) || c.widthHazard(exOld, second) {
		return false, false, false // issue first alone; second re-checked next cycle
	}

	splitWanted := false

	// Intra-packet RAW: lane1 sourcing lane0's destination.
	raw := false
	if first.writes {
		rd := first.rd
		if rd != 0 {
			rawA := second.useA && c.cmpEq(fault.CmpIntra(0), rd, second.srcA)
			rawB := second.useB && c.cmpEq(fault.CmpIntra(1), rd, second.srcB)
			raw = rawA || rawB
			if raw {
				cascadable := !first.isLoad &&
					c.ctl(fault.CtlCascade, true)
				if cascadable {
					casA, casB = rawA, rawB
				} else {
					splitWanted = true
				}
			}
		}
	}
	// Intra-packet pure WAW (no read of lane 0's result): the write-back
	// order rule forces a split. When a RAW cascade already chains the two
	// instructions the ordering is resolved and the packet may issue
	// whole (e.g. lui/ori load-immediate pairs).
	if !raw && first.writes && second.writes {
		if first.rd != 0 && c.cmpEq(fault.CmpIntra(2), first.rd, second.rd) {
			splitWanted = true
		}
	}

	if c.ctl(fault.CtlSplit, splitWanted) {
		c.cov.Inc(coverage.FeatSplitWAW)
		return false, false, false
	}
	return true, casA, casB
}

// loadUseHazard reports whether any source of d matches a load
// destination in pkt (the packet one stage ahead).
func (c *Core) loadUseHazard(pkt *packet, candLane uint8, d *decoded) bool {
	a, useA, b, useB := d.srcA, d.useA, d.srcB, d.useB
	detected := false
	for exLane := uint8(0); exLane < 2; exLane++ {
		u := &pkt[exLane]
		if !u.valid || !u.isLoad || u.rd == 0 {
			continue
		}
		if useA && c.cmpEq(fault.CmpLoadUse(exLane, candLane, 0), u.rd, a) {
			detected = true
		}
		if useB && c.cmpEq(fault.CmpLoadUse(exLane, candLane, 1), u.rd, b) {
			detected = true
		}
		// Pair loads also produce rd+1.
		if u.isPair {
			hi := (u.rd + 1) & 31
			if useA && hi == a || useB && hi == b {
				detected = true
			}
		}
	}
	return c.ctl(fault.CtlLoadUse, detected)
}

// widthHazard reports whether d has a pair/single width overlap with a
// producer in pkt (the packet one stage ahead) that the bypass network
// cannot deliver: a 32-bit producer feeding half of a pair operand, a pair
// producer's high word feeding a 32-bit source, or offset pair overlaps.
// One stall cycle resolves them (the producer's register-file write becomes
// visible before the consumer's EX). These are hard-wired width checks in
// the issue logic, not comparator outputs, so no fault sites attach here.
func (c *Core) widthHazard(pkt *packet, d *decoded) bool {
	a, useA, b, useB := d.srcA, d.useA, d.srcB, d.useB
	pairA, pairB := d.pairA, d.pairB
	for exLane := 0; exLane < 2; exLane++ {
		p := &pkt[exLane]
		if !p.valid || !p.writes || p.rd == 0 {
			continue
		}
		hi := (p.rd + 1) & 31
		check := func(s uint8, used, pairOp bool) bool {
			if !used {
				return false
			}
			sHi := (s + 1) & 31
			switch {
			case !p.isPair && pairOp:
				return p.rd == s || p.rd == sHi
			case p.isPair && !pairOp:
				return s == hi
			case p.isPair && pairOp:
				return s == hi || sHi == p.rd // offset overlap
			}
			return false
		}
		if check(a, useA, pairA) || check(b, useB, pairB) {
			return true
		}
	}
	return false
}

// destOf returns the architectural destination register of inst.
func destOf(inst isa.Inst) uint8 {
	if inst.Op == isa.OpJAL {
		return isa.RegLink
	}
	return inst.Rd
}

// pairOperands reports which source operands of inst are 64-bit register
// pairs. Pair ALU ops read two pairs; SWP's data operand (B) is a pair; the
// base address operand of LWP/SWP is a normal 32-bit register.
func pairOperands(inst isa.Inst) (pairA, pairB bool) {
	switch inst.Op {
	case isa.OpADDP, isa.OpSUBP, isa.OpANDP, isa.OpORP, isa.OpXORP:
		return true, true
	case isa.OpSWP:
		return false, true
	}
	return false, false
}

// mkUop fills issue slot *u from a fetched instruction and its decoded
// record.
func (c *Core) mkUop(u *uop, f *fetched) {
	*u = uop{decoded: f.decoded, valid: true, pc: f.pc, memSize: int(f.size)}
}
