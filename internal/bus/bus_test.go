package bus

import (
	"testing"
	"unsafe"

	"repro/internal/mem"
)

func testBus(n int, policy Arbitration) (*Bus, *mem.RAM) {
	ram := mem.NewRAM(4096, 2)
	b := New(n, policy, []Region{{Base: 0x2000_0000, Size: 4096, Dev: ram}})
	return b, ram
}

func runUntilDone(t *testing.T, b *Bus, p *Port, maxCycles int) int {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		b.Step()
		if p.Done() {
			return i + 1
		}
	}
	t.Fatalf("request not done after %d cycles", maxCycles)
	return 0
}

func TestSingleReadLatency(t *testing.T) {
	b, ram := testBus(1, RoundRobin)
	mem.WriteWord(ram, 8, 0x12345678)
	p := b.PortFor(0)
	p.StartRead(0x2000_0008, 4)
	cycles := runUntilDone(t, b, p, 10)
	// RAM latency 2: grant on cycle 1, countdown 2 cycles -> done cycle 3.
	if cycles != 3 {
		t.Errorf("read took %d cycles, want 3", cycles)
	}
	data := p.Take()
	if got := uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24; got != 0x12345678 {
		t.Errorf("data = %#x", got)
	}
	if p.Busy() {
		t.Error("port still busy after Take")
	}
}

func TestWriteThenRead(t *testing.T) {
	b, ram := testBus(1, RoundRobin)
	p := b.PortFor(0)
	p.StartWrite(0x2000_0010, []byte{1, 2, 3, 4})
	runUntilDone(t, b, p, 10)
	p.Take()
	if got := mem.ReadWord(ram, 0x10); got != 0x04030201 {
		t.Errorf("memory = %#x", got)
	}
}

func TestContentionDelaysSecondMaster(t *testing.T) {
	b, _ := testBus(2, RoundRobin)
	p0, p1 := b.PortFor(0), b.PortFor(1)
	p0.StartRead(0x2000_0000, 16)
	p1.StartRead(0x2000_0000, 16)
	var done0, done1 int
	for i := 1; i <= 20 && (done0 == 0 || done1 == 0); i++ {
		b.Step()
		if done0 == 0 && p0.Done() {
			done0 = i
		}
		if done1 == 0 && p1.Done() {
			done1 = i
		}
	}
	if done0 == 0 || done1 == 0 {
		t.Fatal("requests did not finish")
	}
	if done1 <= done0 {
		t.Errorf("master1 (%d) should finish after master0 (%d)", done1, done0)
	}
	if w := b.StatsFor(1).WaitCycles; w == 0 {
		t.Error("master1 recorded no wait cycles under contention")
	}
	if b.StatsFor(0).Transactions != 1 || b.StatsFor(1).Transactions != 1 {
		t.Error("transaction counts wrong")
	}
}

func TestRoundRobinIsFair(t *testing.T) {
	b, _ := testBus(3, RoundRobin)
	ports := []*Port{b.PortFor(0), b.PortFor(1), b.PortFor(2)}
	finish := make([]int, 3)
	for _, p := range ports {
		p.StartRead(0x2000_0000, 4)
	}
	for i := 1; i <= 30; i++ {
		b.Step()
		for k, p := range ports {
			if finish[k] == 0 && p.Done() {
				finish[k] = i
				p.Take()
				p.StartRead(0x2000_0000, 4) // immediately request again
			}
		}
		if finish[0] > 0 && finish[1] > 0 && finish[2] > 0 {
			break
		}
	}
	if finish[0] == 0 || finish[1] == 0 || finish[2] == 0 {
		t.Fatal("not all masters served")
	}
	// With round robin all three must be served before any is served twice,
	// so the finishing order is 0,1,2 spaced by the device latency.
	if !(finish[0] < finish[1] && finish[1] < finish[2]) {
		t.Errorf("finish order %v not round-robin", finish)
	}
}

func TestFixedPriorityStarves(t *testing.T) {
	b, _ := testBus(2, FixedPriority)
	p0, p1 := b.PortFor(0), b.PortFor(1)
	p1.StartRead(0x2000_0000, 4)
	p0.StartRead(0x2000_0000, 4)
	// Master 0 should win arbitration even though both were pending.
	b.Step()
	b.Step()
	b.Step()
	if !p0.Done() {
		t.Error("master0 not served first under fixed priority")
	}
	if p1.Done() {
		t.Error("master1 served simultaneously")
	}
}

func TestOpenBusReadsAllOnes(t *testing.T) {
	b, _ := testBus(1, RoundRobin)
	p := b.PortFor(0)
	p.StartRead(0xDEAD_0000, 4)
	runUntilDone(t, b, p, 10)
	data := p.Take()
	for _, v := range data {
		if v != 0xFF {
			t.Errorf("open bus read % x", data)
			break
		}
	}
}

func TestPortMisuse(t *testing.T) {
	b, _ := testBus(1, RoundRobin)
	p := b.PortFor(0)
	p.StartRead(0x2000_0000, 4)
	mustPanic(t, func() { p.StartRead(0x2000_0000, 4) })
	mustPanic(t, func() { p.Take() })
	b.Step() // grant: now in service
	mustPanic(t, func() { p.Cancel() })
	mustPanic(t, func() { b.PortFor(9) })
	mustPanic(t, func() { p.StartWrite(0, make([]byte, 32)) })
}

func TestCancelQueued(t *testing.T) {
	b, _ := testBus(2, FixedPriority)
	p0, p1 := b.PortFor(0), b.PortFor(1)
	p0.StartRead(0x2000_0000, 4)
	b.Step() // p0 in service
	p1.StartRead(0x2000_0000, 4)
	p1.Cancel()
	if p1.Busy() {
		t.Error("cancel did not clear request")
	}
	p1.Cancel() // idempotent
}

func TestRecorderAndReplayer(t *testing.T) {
	b, _ := testBus(2, RoundRobin)
	rec := NewRecorder(0)
	b.Attach(rec)
	p0 := b.PortFor(0)
	p0.StartRead(0x2000_0000, 16)
	for i := 0; i < 5; i++ {
		b.Step()
	}
	if p0.Done() {
		p0.Take()
	}
	p0.StartWrite(0x2000_0020, []byte{1, 2, 3, 4})
	for i := 0; i < 5; i++ {
		b.Step()
	}
	logs := rec.EventsByMaster()
	if len(logs) != 1 {
		t.Fatalf("recorded %d masters, want 1", len(logs))
	}
	ev := logs[0]
	if len(ev) != 2 {
		t.Fatalf("recorded %d events, want 2", len(ev))
	}
	if ev[0].Addr != 0x2000_0000 || ev[0].Write || ev[0].N != 16 {
		t.Errorf("event0 = %+v", ev[0])
	}
	if ev[1].Addr != 0x2000_0020 || !ev[1].Write || ev[1].N != 4 {
		t.Errorf("event1 = %+v", ev[1])
	}

	// Replay onto a fresh bus and check the same bus pressure appears.
	b2, _ := testBus(2, RoundRobin)
	rp := NewReplayer(b2.PortFor(1), ev)
	for i := 0; i < 100 && !rp.Done(); i++ {
		b2.Step()
		rp.Step(b2.Cycle())
	}
	if !rp.Done() {
		t.Fatal("replayer did not finish")
	}
	if b2.StatsFor(1).Transactions != 2 {
		t.Errorf("replayed %d transactions", b2.StatsFor(1).Transactions)
	}
}

// TestTrafficEventPacked pins a recorded transaction at 16 bytes: a
// golden recording holds one per transaction of every recorded core.
func TestTrafficEventPacked(t *testing.T) {
	if n := unsafe.Sizeof(TrafficEvent{}); n != 16 {
		t.Errorf("TrafficEvent is %d bytes, want 16", n)
	}
}

func TestUtilization(t *testing.T) {
	b, _ := testBus(1, RoundRobin)
	p := b.PortFor(0)
	p.StartRead(0x2000_0000, 4)
	runUntilDone(t, b, p, 10)
	if u := b.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization %f", u)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestServiceConservation: the bus's busy time must equal the sum of the
// device latencies of all completed transactions — the arbiter can delay
// work but never create or destroy it.
func TestServiceConservation(t *testing.T) {
	ram := mem.NewRAM(4096, 3)
	flash := mem.NewFlash(4096, []int{8})
	b := New(3, RoundRobin, []Region{
		{Base: 0x0000_0000, Size: 4096, Dev: flash},
		{Base: 0x2000_0000, Size: 4096, Dev: ram},
	})
	ports := []*Port{b.PortFor(0), b.PortFor(1), b.PortFor(2)}
	issued := []int{0, 0, 0}
	wantBusy := 0
	const perMaster = 25
	for cycle := 0; cycle < 5000; cycle++ {
		b.Step()
		for id, p := range ports {
			if p.Done() {
				p.Take()
			}
			if !p.Busy() && issued[id] < perMaster {
				if (cycle+id)%2 == 0 {
					p.StartRead(0x2000_0000+uint32(id)*64, 4)
					wantBusy += 3
				} else {
					p.StartRead(uint32(id)*64, 16)
					wantBusy += 8
				}
				issued[id]++
			}
		}
		if issued[0] == perMaster && issued[1] == perMaster && issued[2] == perMaster &&
			!ports[0].Busy() && !ports[1].Busy() && !ports[2].Busy() {
			break
		}
	}
	totalTx := 0
	totalBusy := 0
	for id := range ports {
		st := b.StatsFor(id)
		totalTx += st.Transactions
		totalBusy += st.BusyCycles
	}
	if totalTx != 3*perMaster {
		t.Fatalf("completed %d transactions, want %d", totalTx, 3*perMaster)
	}
	if totalBusy != wantBusy {
		t.Errorf("busy cycles %d, want %d (service created or lost)", totalBusy, wantBusy)
	}
}

// TestNoStarvationUnderRoundRobin: with all masters continuously
// requesting, every master completes work within a bounded window.
func TestNoStarvationUnderRoundRobin(t *testing.T) {
	ram := mem.NewRAM(4096, 2)
	b := New(4, RoundRobin, []Region{{Base: 0, Size: 4096, Dev: ram}})
	done := make([]int, 4)
	ports := make([]*Port, 4)
	for i := range ports {
		ports[i] = b.PortFor(i)
		ports[i].StartRead(0, 4)
	}
	for cycle := 0; cycle < 64; cycle++ {
		b.Step()
		for id, p := range ports {
			if p.Done() {
				p.Take()
				done[id]++
				p.StartRead(0, 4)
			}
		}
	}
	for id, n := range done {
		if n == 0 {
			t.Errorf("master %d starved", id)
		}
	}
	// Fairness: min and max completions within one transaction of each
	// other.
	min, max := done[0], done[0]
	for _, n := range done {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Errorf("round robin unfair: %v", done)
	}
}

// TestPortSlotsStayPut pins what ports and replayers rely on when they hold
// a pointer to their request slot: Reset and Restore rewrite the slots in
// place, so a request submitted through a port after either is the one the
// bus serves, and a snapshot's in-flight request is the port's after
// Restore.
func TestPortSlotsStayPut(t *testing.T) {
	b, ram := testBus(2, RoundRobin)
	mem.WriteWord(ram, 8, 0xCAFEF00D)
	p := b.PortFor(1)
	slot := &b.reqs[1]
	p.StartRead(0x2000_0008, 4)
	b.Step()
	saved := b.Snapshot()
	b.Reset()
	if p.req != slot || p.Busy() {
		t.Fatal("Reset moved or kept the port's request slot")
	}
	b.Restore(saved)
	if p.req != slot || !p.Busy() {
		t.Fatal("Restore did not bring the in-flight request back into the port's slot")
	}
	runUntilDone(t, b, p, 10)
	if got := p.Take(); got[0] != 0x0D || got[3] != 0xCA {
		t.Errorf("restored read returned % x", got)
	}
}
