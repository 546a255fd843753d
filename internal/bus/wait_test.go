package bus

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refStats counts per-master statistics cycle by cycle, the way the bus
// did before it charged waits at grant: before each Step it reads pending,
// owner and remaining, then credits the owner one busy cycle (and a
// transaction when it completes) and every master still queued behind the
// bus one wait cycle.
type refStats []Stats

func (r refStats) step(b *Bus) {
	owner, pending := b.owner, b.pending
	if owner >= 0 {
		r[owner].BusyCycles++
		if b.remaining <= 1 {
			r[owner].Transactions++
			pending &^= 1 << owner
			owner = -1
		}
	}
	for id := range r {
		if pending>>id&1 != 0 && id != owner {
			r[id].WaitCycles++
		}
	}
}

// randomTrace is a replay trace for master with gaps long enough that the
// replayer sits idle between events and short enough that back-pressure
// delays some of them past their recorded cycle.
func randomTrace(rng *rand.Rand, master, n int) []TrafficEvent {
	var log []TrafficEvent
	cycle := int64(0)
	for range n {
		cycle += int64(rng.IntN(24))
		log = append(log, TrafficEvent{
			Cycle: cycle, Master: uint8(master), Addr: randomAddr(rng),
			Write: rng.IntN(2) == 0, N: []uint8{1, 4, 8, 16}[rng.IntN(4)],
		})
	}
	return log
}

// randomAddr mostly hits the test RAM and sometimes the open bus.
func randomAddr(rng *rand.Rand) uint32 {
	if rng.IntN(8) == 0 {
		return 0x4000_0000
	}
	return 0x2000_0000 + uint32(rng.IntN(256))*16
}

// drive submits, takes and cancels requests at random on the manual ports:
// one cycle of the seeded stream.
func drive(rng *rand.Rand, ports []*Port) {
	for _, p := range ports {
		switch {
		case p.Done():
			if rng.IntN(4) == 0 {
				p.Cancel() // cancelling a completed request just drops it
			} else {
				p.Take()
			}
		case p.Busy():
			if !p.InService() && rng.IntN(6) == 0 {
				p.Cancel()
			}
		case rng.IntN(3) == 0:
			if rng.IntN(2) == 0 {
				p.StartRead(randomAddr(rng), []int{1, 4, 8, 16}[rng.IntN(4)])
			} else {
				p.StartWrite(randomAddr(rng), make([]byte, 1+rng.IntN(16)))
			}
		}
	}
}

// TestWaitChargedAtGrantMatchesPerCycleCount: under a seeded stream of
// requests and cancels on four masters plus two replay masters, every
// master's WaitCycles, BusyCycles and Transactions equal the per-cycle
// reference count after every Step and every cancel, under both arbiters,
// and still do after a snapshot taken while a request waits is restored.
func TestWaitChargedAtGrantMatchesPerCycleCount(t *testing.T) {
	const manual, replay = 4, 2
	for _, policy := range []Arbitration{RoundRobin, FixedPriority} {
		rng := rand.New(rand.NewPCG(18, uint64(policy)))
		b, _ := testBus(manual+replay, policy)
		var ports []*Port
		for id := range manual {
			ports = append(ports, b.PortFor(id))
		}
		var reps []*Replayer
		for k := range replay {
			reps = append(reps, NewReplayer(b.PortFor(manual+k), randomTrace(rng, manual+k, 60)))
		}
		ref := make(refStats, manual+replay)
		check := func(when string) {
			t.Helper()
			for id := range ref {
				if got := b.StatsFor(id); got != ref[id] {
					t.Fatalf("policy %d, cycle %d %s: master %d stats %+v, per-cycle count %+v",
						policy, b.Cycle(), when, id, got, ref[id])
				}
			}
		}
		cycle := func() {
			ref.step(b)
			b.Step()
			for _, r := range reps {
				r.Step(b.Cycle())
			}
			check("after Step")
			drive(rng, ports)
			check("after the stream")
		}

		var saved *State
		var savedRef refStats
		var savedPos []int
		for range 800 {
			cycle()
			queued := b.pending
			if b.owner >= 0 {
				queued &^= 1 << b.owner
			}
			if saved == nil && b.Cycle() > 200 && queued != 0 {
				saved, savedRef = b.Snapshot(), slices.Clone(ref)
				for _, r := range reps {
					savedPos = append(savedPos, r.Pos())
				}
			}
		}
		if saved == nil {
			t.Fatal("no request ever waited; the stream is too light")
		}
		waited := 0
		for id := range ref {
			waited += ref[id].WaitCycles
		}
		if waited == 0 {
			t.Fatal("no wait cycles at all; the stream is too light")
		}

		b.Restore(saved)
		copy(ref, savedRef)
		for k, r := range reps {
			r.Seek(savedPos[k])
		}
		check("after Restore")
		for range 400 {
			cycle()
		}
	}
}

// pollReplayer is the replayer as it was before the wake rule, kept as the
// reference: it checks its request slot and its next event every cycle.
type pollReplayer struct {
	port *Port
	log  []TrafficEvent
	next int
	buf  [16]byte
}

func (r *pollReplayer) Step(now int64) {
	if r.port.Busy() {
		if !r.port.Done() {
			return
		}
		r.port.Take()
	}
	if r.next >= len(r.log) {
		return
	}
	ev := r.log[r.next]
	if now < ev.Cycle {
		return
	}
	if ev.Write {
		r.port.StartWrite(ev.Addr, r.buf[:ev.N])
	} else {
		r.port.StartRead(ev.Addr, int(ev.N))
	}
	r.next++
}

func (r *pollReplayer) Pos() int   { return r.next }
func (r *pollReplayer) Seek(n int) { r.next = n }
func (r *pollReplayer) Reset()     { r.next = 0 }

// replayMaster is what the test drives of a Replayer and of its reference.
type replayMaster interface {
	Step(now int64)
	Pos() int
	Seek(n int)
	Reset()
}

// TestReplayerWakeMatchesPoll: a Replayer that sleeps until its next event
// is due submits every event at the same bus cycle as the per-cycle poll,
// against contending random traffic, across a checkpoint restore (Seek)
// and a Reset. A Recorder on each bus logs every replayed submission with
// its cycle, one log per master; the two buses' logs must be equal.
func TestReplayerWakeMatchesPoll(t *testing.T) {
	const manual, replay = 2, 3
	traces := make([][]TrafficEvent, replay)
	rng := rand.New(rand.NewPCG(18, 7))
	for k := range traces {
		traces[k] = randomTrace(rng, manual+k, 50)
	}

	type side struct {
		b     *Bus
		rec   *Recorder
		rng   *rand.Rand
		ports []*Port
		reps  []replayMaster
	}
	build := func(wake bool) *side {
		s := &side{rng: rand.New(rand.NewPCG(18, 8))}
		s.b, _ = testBus(manual+replay, RoundRobin)
		s.rec = NewRecorder(manual, manual+1, manual+2)
		s.b.Attach(s.rec)
		for id := range manual {
			s.ports = append(s.ports, s.b.PortFor(id))
		}
		for k, tr := range traces {
			port := s.b.PortFor(manual + k)
			if wake {
				s.reps = append(s.reps, NewReplayer(port, tr))
			} else {
				s.reps = append(s.reps, &pollReplayer{port: port, log: tr})
			}
		}
		return s
	}
	sides := []*side{build(true), build(false)}
	run := func(n int) {
		for range n {
			for _, s := range sides {
				s.b.Step()
				for _, r := range s.reps {
					r.Step(s.b.Cycle())
				}
				drive(s.rng, s.ports)
			}
		}
	}

	run(300)
	snaps := make([]*State, len(sides))
	pos := make([][]int, len(sides))
	for i, s := range sides {
		snaps[i] = s.b.Snapshot()
		for _, r := range s.reps {
			pos[i] = append(pos[i], r.Pos())
		}
	}
	run(300)
	for i, s := range sides {
		s.b.Restore(snaps[i])
		for k, r := range s.reps {
			r.Seek(pos[i][k])
		}
	}
	run(300)
	for _, s := range sides {
		s.b.Reset() // detaches the recorder
		s.b.Attach(s.rec)
		for _, r := range s.reps {
			r.Reset()
		}
	}
	run(1200)

	wake, poll := sides[0].rec.EventsByMaster(), sides[1].rec.EventsByMaster()
	if len(wake) != len(poll) {
		t.Fatalf("wake rule logged %d masters, per-cycle poll %d", len(wake), len(poll))
	}
	total := 0
	for m, p := range poll {
		total += len(p)
		w := wake[m]
		if slices.Equal(w, p) {
			continue
		}
		for i := range min(len(w), len(p)) {
			if w[i] != p[i] {
				t.Fatalf("log %d, event %d: wake rule submitted %+v, per-cycle poll %+v", m, i, w[i], p[i])
			}
		}
		t.Fatalf("log %d: wake rule submitted %d events, per-cycle poll %d", m, len(w), len(p))
	}
	if total < 2*replay*50 {
		t.Fatalf("reference replayed only %d events; the run is too short", total)
	}
}
