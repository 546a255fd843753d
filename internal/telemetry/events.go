package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event kinds of the campaign event stream. DecodeEvents rejects anything
// else, so the set doubles as the stream's schema version: extending it is
// a deliberate, test-visible change.
const (
	// EventStart opens a campaign: universe size, worker count.
	EventStart = "start"
	// EventProgress is one periodic progress sample: settled count, rate,
	// ETA.
	EventProgress = "progress"
	// EventSite records one settled site verdict.
	EventSite = "site"
	// EventQuarantine records a worker arena failing its health check and
	// being rebuilt (or dying).
	EventQuarantine = "quarantine"
	// EventSpan records one closed named wall-clock span (experiments
	// table sweeps).
	EventSpan = "span"
	// EventFinish closes a campaign: totals and wall time.
	EventFinish = "finish"
)

// Event is one line of the JSONL campaign event stream. Kind selects the
// meaningful fields; everything else stays at its zero value and is
// omitted from the encoding. The schema is pinned by the round-trip test
// in events_test.go, and DecodeEvents (which CI runs over real streams)
// rejects unknown kinds and unknown fields.
type Event struct {
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`
	// T is the wall-clock timestamp in Unix nanoseconds (stamped by Emit
	// when zero).
	T int64 `json:"t,omitempty"`

	// Sites is the universe size (start, finish).
	Sites int `json:"sites,omitempty"`
	// Workers is the worker-pool size (start).
	Workers int `json:"workers,omitempty"`

	// Index is the settled site's index in the universe (site).
	Index int `json:"i,omitempty"`
	// Site is the rendered site name (site).
	Site string `json:"site,omitempty"`
	// Sig is the settled signature (site).
	Sig uint32 `json:"sig,omitempty"`
	// Detected marks a detected verdict (site).
	Detected bool `json:"detected,omitempty"`
	// Crashed marks a wedged or timed-out run (site).
	Crashed bool `json:"crashed,omitempty"`
	// Panicked marks a verdict settled at the recover boundary (site).
	Panicked bool `json:"panicked,omitempty"`
	// FromJournal marks a verdict folded in from a resumed journal rather
	// than re-run (site).
	FromJournal bool `json:"journal,omitempty"`

	// Settled is the number of settled sites so far (progress) or total
	// (finish).
	Settled int64 `json:"settled,omitempty"`
	// DetectedTotal is the running detected count (progress, finish).
	DetectedTotal int64 `json:"detected_total,omitempty"`
	// Rate is the settle rate in sites/second (progress).
	Rate float64 `json:"rate,omitempty"`
	// ETANs estimates the remaining campaign time in nanoseconds
	// (progress).
	ETANs int64 `json:"eta_ns,omitempty"`
	// ElapsedNs is wall time since the campaign or span start (progress,
	// span, finish).
	ElapsedNs int64 `json:"elapsed_ns,omitempty"`

	// Core is the arena's core under test (quarantine).
	Core int `json:"core,omitempty"`

	// Name is the span name (span).
	Name string `json:"name,omitempty"`
}

// knownKinds is the decode-side schema gate.
var knownKinds = map[string]bool{
	EventStart: true, EventProgress: true, EventSite: true,
	EventQuarantine: true, EventSpan: true, EventFinish: true,
}

// EventLog is an append-only JSONL event sink, safe for concurrent Emit
// from campaign workers. A nil *EventLog is the disabled mode: Emit
// no-ops, so instrumented code passes the handle through unconditionally.
type EventLog struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewEventLog wraps w (typically an os.File the caller owns and closes)
// as an event sink.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w}
}

// Emit appends one event line, stamping T with the current wall clock
// when unset. Write errors are sticky and reported by Err — an
// observability stream must never abort the campaign it watches.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	if e.T == 0 {
		e.T = time.Now().UnixNano()
	}
	blob, err := json.Marshal(e)
	if err != nil {
		l.setErr(err)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if _, err := l.w.Write(append(blob, '\n')); err != nil {
		l.err = err
	}
}

// setErr records the first error.
func (l *EventLog) setErr(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

// Err returns the first write or encode error (nil on a nil receiver).
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// DecodeEvents parses a JSONL event stream strictly: every line must be
// one well-formed Event, with a known kind, no unknown fields and nothing
// after it. It is the
// schema validator the round-trip test and the CI smoke leg share.
func DecodeEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("telemetry: events line %d: %w", line, err)
		}
		if rest := raw[dec.InputOffset():]; len(rest) != 0 {
			return nil, fmt.Errorf("telemetry: events line %d: trailing data %.20q after the event", line, rest)
		}
		if !knownKinds[e.Kind] {
			return nil, fmt.Errorf("telemetry: events line %d: unknown kind %q", line, e.Kind)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: events: %w", err)
	}
	return out, nil
}

// CountKind returns how many events of the given kind the slice holds —
// the one-line query CI's stream validation and the schema tests use.
func CountKind(events []Event, kind string) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
