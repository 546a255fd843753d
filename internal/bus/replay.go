package bus

import (
	"fmt"
	"math"
)

// Traffic recording and replay. Fault simulation needs thousands of runs of
// a multi-core scenario; simulating all three cores for every fault would
// multiply the cost by the core count even though a fault is private to the
// core under test. Instead, the fault-free scenario is run once with every
// core live while the bus records the other cores' transactions; each fault
// run then replays that recorded traffic through Replayer masters, so the
// core under test sees the same deterministic contention.

// TrafficEvent is one recorded bus transaction start, in 16 bytes: a
// golden recording holds one for every transaction the recorded cores
// issue.
type TrafficEvent struct {
	Cycle  int64 // bus cycle the request was submitted
	Addr   uint32
	Master uint8 // master that issued it; a bus has a handful
	Write  bool
	N      uint8 // transfer size in bytes, at most a cache line
}

// String prints the event with its fields in the order content keys
// encode them (core.CampaignFingerprint), which is not the order they are
// declared in to pack the struct: {Cycle:c Master:m Addr:a Write:w N:n}.
func (e TrafficEvent) String() string {
	return fmt.Sprintf("{Cycle:%d Master:%d Addr:%d Write:%t N:%d}", e.Cycle, e.Master, e.Addr, e.Write, e.N)
}

// Recorder captures the requests submitted by a set of masters, one log
// per master.
type Recorder struct {
	// at holds, for each master ID below its length, one more than the
	// index of the master's log in logs, 0 for a watched master that has
	// submitted nothing yet, and -1 for a master the recorder does not
	// watch.
	at   []int
	logs [][]TrafficEvent // in the order the masters first submitted
}

// NewRecorder records transactions issued by the given master IDs.
func NewRecorder(masters ...int) *Recorder {
	r := &Recorder{}
	for _, m := range masters {
		for len(r.at) <= m {
			r.at = append(r.at, -1)
		}
		r.at[m] = 0
	}
	return r
}

// EventsByMaster returns the trace of each master that submitted, in
// submission order, the masters in the order they first submitted.
// Replaying each sub-trace on its own bus master reproduces the original
// contention pattern (one shared port would serialise overlapping
// requests and understate it). The logs are the recorder's own, not
// copies.
func (r *Recorder) EventsByMaster() [][]TrafficEvent { return r.logs }

// Attach installs the recorder on the bus. Only one recorder can be
// attached at a time.
func (b *Bus) Attach(r *Recorder) { b.recorder = r }

func (b *Bus) record(id int, addr uint32, write bool, n int) {
	r := b.recorder
	if r == nil || id >= len(r.at) || r.at[id] < 0 {
		return
	}
	if r.at[id] == 0 {
		r.logs = append(r.logs, nil)
		r.at[id] = len(r.logs)
	}
	log := &r.logs[r.at[id]-1]
	*log = append(*log, TrafficEvent{Cycle: b.cycle, Addr: addr, Master: uint8(id), Write: write, N: uint8(n)})
}

// Replayer drives one bus master through a recorded trace. Each event is
// submitted at its recorded cycle, or as soon as the previous replayed
// transaction finishes, whichever is later — the same back-pressure a real
// core experiences.
type Replayer struct {
	port *Port
	req  *request // direct handle on the port's request slot (hot path)
	log  []TrafficEvent
	next int
	// wake is the bus cycle before which Step has nothing to do: the due
	// cycle of the next event while the replayer is idle, MaxInt64 once
	// the trace is exhausted. While a request is in flight it is at most
	// the current cycle, so Step polls every cycle.
	wake int64
	buf  [16]byte

	// _ fills Replayer out to whole 64-byte host cache lines (128
	// bytes); see soc.TestHotStateOwnsCacheLines.
	_ [56]byte
}

// NewReplayer builds a replayer for port over the given trace.
func NewReplayer(port *Port, log []TrafficEvent) *Replayer {
	return &Replayer{port: port, req: port.req, log: log}
}

// Reset rewinds the replayer to the start of its trace. The caller must
// reset the bus as well (a stale in-flight request would otherwise be
// mistaken for a replayed one).
func (r *Replayer) Reset() { r.next, r.wake = 0, 0 }

// Pos returns the replay cursor (number of events already submitted). The
// in-flight request, if any, lives in the bus's request slot and is covered
// by Bus.Snapshot, so the cursor is the replayer's whole dynamic state (the
// wake cycle is derived from it and re-derived after Seek).
func (r *Replayer) Pos() int { return r.next }

// Seek rewinds or advances the replay cursor to a position previously
// returned by Pos (checkpoint restore).
func (r *Replayer) Seek(n int) { r.next, r.wake = n, 0 }

// Step advances the replayer by one cycle; call once per bus cycle after
// Bus.Step. It is stepped once per simulated cycle for the whole campaign:
// an idle replayer returns at once until its next event is due, and a
// busy one polls its request slot directly instead of going through the
// port accessors.
func (r *Replayer) Step(now int64) {
	if now < r.wake {
		return
	}
	r.poll(now)
}

func (r *Replayer) poll(now int64) {
	if r.req.active {
		if !r.req.done {
			return // in flight
		}
		r.req.active, r.req.done = false, false // take
	}
	if r.next >= len(r.log) {
		r.wake = math.MaxInt64
		return
	}
	ev := &r.log[r.next]
	if now < ev.Cycle {
		r.wake = ev.Cycle
		return
	}
	if ev.Write {
		r.port.StartWrite(ev.Addr, r.buf[:ev.N])
	} else {
		r.port.StartRead(ev.Addr, int(ev.N))
	}
	r.next++
}

// QuietUntil returns the first bus cycle whose Step does more than
// return: the due cycle of the next event while the replayer is idle, and
// math.MaxInt64 while its request waits on the bus, whose completion ends
// a quiet window on the bus side. A request completed and not yet taken
// is due at once (0). Steps of earlier cycles change nothing, so a
// cycle-skipping caller leaves them out.
func (r *Replayer) QuietUntil() int64 {
	if r.req.active {
		if r.req.done {
			return 0
		}
		return math.MaxInt64
	}
	return r.wake
}

// Done reports whether the whole trace has been replayed and retired.
func (r *Replayer) Done() bool { return r.next >= len(r.log) && !r.port.Busy() }
