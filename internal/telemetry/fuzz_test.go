package telemetry_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// FuzzDecodeEvents feeds arbitrary bytes to the strict event decoder.
// Every line it accepts must be one valid JSON value, and the events it
// returns must encode and decode back to themselves. The seeds are a real
// campaign's event stream, one event of every kind, and a real line with
// a second value or garbage after it; they run under plain `go test`.
func FuzzDecodeEvents(f *testing.F) {
	c, err := serve.Spec{Routine: "forwarding", Strategy: "plain", BitStep: 16}.Build()
	if err != nil {
		f.Fatal(err)
	}
	var stream bytes.Buffer
	log := telemetry.NewEventLog(&stream)
	if _, err := c.Run(c.Sites[:6], core.CampaignOptions{Workers: 2, Events: log}); err != nil {
		f.Fatal(err)
	}
	f.Add(stream.Bytes())
	var kinds bytes.Buffer
	log = telemetry.NewEventLog(&kinds)
	for _, e := range []telemetry.Event{
		{Kind: telemetry.EventStart, Sites: 3, Workers: 2},
		{Kind: telemetry.EventProgress, Settled: 1, DetectedTotal: 1, Rate: 12.5, ETANs: 3, ElapsedNs: 4},
		{Kind: telemetry.EventSite, Index: 2, Site: "fwd", Sig: 7, Detected: true, Crashed: true, Panicked: true, FromJournal: true},
		{Kind: telemetry.EventQuarantine, Core: 1},
		{Kind: telemetry.EventSpan, Name: "t2", ElapsedNs: 9},
		{Kind: telemetry.EventFinish, Sites: 3, Settled: 3, DetectedTotal: 2, ElapsedNs: 10},
	} {
		log.Emit(e)
	}
	f.Add(kinds.Bytes())
	first, _, _ := strings.Cut(stream.String(), "\n")
	f.Add([]byte(first + first + "\n"))
	f.Add([]byte(first + " trailing garbage\n"))

	f.Fuzz(func(t *testing.T, in []byte) {
		events, err := telemetry.DecodeEvents(bytes.NewReader(in))
		if err != nil {
			return
		}
		for _, line := range strings.Split(string(in), "\n") {
			if line = strings.TrimSpace(line); line != "" && !json.Valid([]byte(line)) {
				t.Fatalf("accepted line %q is not one JSON value", line)
			}
		}
		var out bytes.Buffer
		for _, e := range events {
			blob, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("accepted event %+v does not encode: %v", e, err)
			}
			out.Write(append(blob, '\n'))
		}
		again, err := telemetry.DecodeEvents(&out)
		if err != nil {
			t.Fatalf("re-encoded events refused: %v", err)
		}
		if len(again) != len(events) || (len(events) > 0 && !reflect.DeepEqual(again, events)) {
			t.Fatalf("events do not round-trip:\n%+v\n%+v", events, again)
		}
	})
}
