package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestEventSchemaRoundTrip pins the event stream schema: one fully
// populated event of every kind encodes through an EventLog and decodes
// back bit-identically via DecodeEvents — the same decoder the CI smoke
// leg runs over real faultsim streams.
func TestEventSchemaRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: EventStart, T: 10, Sites: 96, Workers: 4},
		{Kind: EventProgress, T: 20, Settled: 40, DetectedTotal: 31,
			Rate: 12.5, ETANs: 4_480_000_000, ElapsedNs: 3_200_000_000},
		{Kind: EventSite, T: 30, Index: 7, Site: "fwd/EX-MEM.l0.a bit3 SA1",
			Sig: 0xdeadbeef, Detected: true, Crashed: true, Panicked: true,
			FromJournal: true},
		{Kind: EventQuarantine, T: 40, Core: 2},
		{Kind: EventSpan, T: 50, Name: "table2_coreA", ElapsedNs: 900},
		{Kind: EventFinish, T: 60, Sites: 96, Settled: 96, DetectedTotal: 80,
			ElapsedNs: 7_000_000_000},
	}
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	for _, e := range events {
		l.Emit(e)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip changed the events:\n got %+v\nwant %+v", got, events)
	}
	if CountKind(got, EventSite) != 1 || CountKind(got, EventProgress) != 1 {
		t.Fatal("CountKind miscounts")
	}
}

func TestEmitStampsTime(t *testing.T) {
	var buf bytes.Buffer
	NewEventLog(&buf).Emit(Event{Kind: EventStart})
	got, err := DecodeEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].T == 0 {
		t.Fatalf("Emit must stamp T: %+v", got)
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := DecodeEvents(strings.NewReader(`{"kind":"mystery"}`)); err == nil {
		t.Fatal("unknown kind must fail decoding")
	}
}

func TestDecodeRejectsUnknownField(t *testing.T) {
	if _, err := DecodeEvents(strings.NewReader(`{"kind":"start","bogus":1}`)); err == nil {
		t.Fatal("unknown field must fail decoding")
	}
}

func TestDecodeRejectsGarbageLine(t *testing.T) {
	in := `{"kind":"start"}` + "\nnot json\n"
	if _, err := DecodeEvents(strings.NewReader(in)); err == nil {
		t.Fatal("malformed line must fail decoding")
	}
}

// TestDecodeRejectsTrailingData pins that each line holds one event and
// nothing else: a second value or garbage after the first is refused.
func TestDecodeRejectsTrailingData(t *testing.T) {
	for _, in := range []string{
		`{"kind":"start","sites":3}{"kind":"nonsense","bogus":1}`,
		`{"kind":"start"} trailing garbage`,
		`{"kind":"start"} }`,
	} {
		if got, err := DecodeEvents(strings.NewReader(in + "\n")); err == nil {
			t.Errorf("%s: decoded as %d event(s), want refused", in, len(got))
		}
	}
}

func TestDecodeSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"kind":"start"}` + "\n\n" + `{"kind":"finish"}` + "\n"
	got, err := DecodeEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d events, want 2", len(got))
	}
}

// TestEventLogConcurrentEmit exercises the worker-pool pattern: many
// goroutines emitting into one log must interleave whole lines only.
func TestEventLogConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Emit(Event{Kind: EventSite, Index: w*each + i})
			}
		}(w)
	}
	wg.Wait()
	got, err := DecodeEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers*each {
		t.Fatalf("decoded %d events, want %d", len(got), workers*each)
	}
}
