package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	routineName := flag.String("routine", "forwarding", "routine: forwarding, hdcu or icu")
	coreID := flag.Int("core", 0, "core under test (0=A, 1=B, 2=C)")
	strategyName := flag.String("strategy", "cache", "execution strategy: plain, cache or tcm")
	multicore := flag.Bool("multicore", true, "replay 3-core bus contention around the core under test")
	bitStep := flag.Int("bitstep", 1, "enumerate every Nth data bit (campaign reduction)")
	faults := flag.String("faults", "stuckat", "fault model: stuckat or transition (forwarding routine only)")
	engine := flag.String("engine", "arena", "campaign mode: arena (optimized: early exit, checkpointing) or reference (full budget, no shortcuts)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	journal := flag.String("journal", "", "append-only verdict journal file (line-delimited JSON; survives SIGKILL)")
	resume := flag.Bool("resume", false, "resume from -journal: skip settled sites and reproduce the bit-identical report")
	reportFile := flag.String("report", "", "write the final fault.Report as JSON to this file")
	progress := flag.Duration("progress", 0, "print a campaign progress line to stderr every interval (0 = off)")
	eventsPath := flag.String("events", "", "stream campaign events (JSONL: start/progress/site/quarantine/finish) to this file")
	telemetryAddr := flag.String("telemetry", "", "serve Prometheus /metrics and /debug/pprof on this address (:0 picks a free port, printed to stderr)")
	summaryPath := flag.String("summary", "", "write a run-summary JSON (report + telemetry snapshot) to this file")
	checkEvents := flag.String("check-events", "", "validate a JSONL event-stream file (strict schema, campaign shape) and exit")
	verbose := flag.Bool("v", false, "list undetected faults")
	flag.Parse()
	if *checkEvents != "" {
		os.Exit(checkEventStream(*checkEvents))
	}
	if *engine != "arena" && *engine != "reference" {
		fmt.Fprintf(os.Stderr, "faultsim: unknown engine %q\n", *engine)
		os.Exit(2)
	}

	// Campaign construction is shared with the campaign service: the same
	// Spec a faultserve client submits builds the same environment here,
	// which is what makes service reports and local reports byte-identical.
	spec := serve.Spec{
		Routine:   *routineName,
		Core:      *coreID,
		Strategy:  *strategyName,
		Multicore: *multicore,
		BitStep:   *bitStep,
		Faults:    *faults,
	}
	c, err := spec.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(2)
	}

	// Telemetry sinks: a registry when anything consumes it, an HTTP
	// listener for /metrics and pprof, and a JSONL event stream.
	var reg *telemetry.Registry
	if *telemetryAddr != "" || *summaryPath != "" {
		reg = telemetry.NewRegistry()
	}
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr, reg)
		fail(err)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "faultsim: telemetry on http://%s/metrics\n", srv.Addr())
	}
	var events *telemetry.EventLog
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		fail(err)
		defer f.Close()
		events = telemetry.NewEventLog(f)
	}

	rep, err := c.Run(c.Sites, core.CampaignOptions{
		Workers:   *workers,
		Reference: *engine == "reference",
		Journal:   *journal,
		Resume:    *resume,
		Telemetry: reg,
		Events:    events,
		Progress:  *progress,
	})
	fail(err)
	fail(events.Err())
	fmt.Printf("routine=%s core=%c strategy=%s multicore=%v engine=%s\n",
		*routineName, rune('A'+*coreID), *strategyName, *multicore, *engine)
	fmt.Println(rep.String())
	for _, a := range rep.Anomalies {
		fmt.Fprintf(os.Stderr, "faultsim: panicked run (site %v): %s\n", a.Site, a.Msg)
	}
	if *reportFile != "" {
		// Stacks are diagnostic, not part of the verdict set:
		// serve.MarshalReport strips them so report files are
		// byte-comparable across resumed runs and against service jobs.
		blob, err := serve.MarshalReport(rep)
		fail(err)
		fail(os.WriteFile(*reportFile, blob, 0o644))
	}
	if *summaryPath != "" {
		fail(writeSummary(*summaryPath, rep, reg))
	}

	fmt.Println("per-signal breakdown:")
	for _, st := range rep.BySignal() {
		fmt.Printf("  %-8v %4d/%4d (%.1f%%)\n", st.Signal, st.Detected, st.Total,
			100*float64(st.Detected)/float64(st.Total))
	}
	if *verbose {
		fmt.Println("undetected faults:")
		for _, s := range rep.Undetected() {
			fmt.Println("  ", s)
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
}

// runSummary is the campaign provenance record -summary writes: the final
// report (anomaly stacks stripped, like -report) plus the full telemetry
// snapshot and wall-clock timestamp.
type runSummary struct {
	FinishedAt time.Time          `json:"finishedAt"`
	Report     fault.Report       `json:"report"`
	Telemetry  telemetry.Snapshot `json:"telemetry"`
	Dispatch   map[string]int64   `json:"dispatch"`
}

// writeSummary renders the run summary. The dispatch counts ride in their
// own map (Report excludes them from JSON so report files stay
// byte-comparable across engine modes).
func writeSummary(path string, rep fault.Report, reg *telemetry.Registry) error {
	clean := rep
	clean.Anomalies = nil
	dispatch := make(map[string]int64, fault.NumDispatchPaths)
	for p := fault.DispatchPath(0); p < fault.NumDispatchPaths; p++ {
		dispatch[p.String()] = rep.Dispatch[p]
	}
	blob, err := json.MarshalIndent(runSummary{
		FinishedAt: time.Now().UTC(),
		Report:     clean,
		Telemetry:  reg.Snapshot(),
		Dispatch:   dispatch,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// checkEventStream validates a JSONL event-stream file with the same
// strict decoder the telemetry schema test pins, then checks the campaign
// shape: exactly one start and one finish, and the finish's settled count
// must equal the number of site events in the stream.
func checkEventStream(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		return 1
	}
	defer f.Close()
	events, err := telemetry.DecodeEvents(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim: check-events:", err)
		return 1
	}
	starts := telemetry.CountKind(events, telemetry.EventStart)
	finishes := telemetry.CountKind(events, telemetry.EventFinish)
	siteEvents := telemetry.CountKind(events, telemetry.EventSite)
	fmt.Printf("events: %d total (%d start, %d progress, %d site, %d quarantine, %d finish)\n",
		len(events), starts,
		telemetry.CountKind(events, telemetry.EventProgress), siteEvents,
		telemetry.CountKind(events, telemetry.EventQuarantine), finishes)
	if starts != 1 || finishes != 1 {
		fmt.Fprintf(os.Stderr, "faultsim: check-events: want exactly one start and one finish, got %d and %d\n", starts, finishes)
		return 1
	}
	for _, e := range events {
		if e.Kind == telemetry.EventFinish && e.Settled != int64(siteEvents) {
			fmt.Fprintf(os.Stderr, "faultsim: check-events: finish settled %d but stream carries %d site events\n",
				e.Settled, siteEvents)
			return 1
		}
	}
	fmt.Println("event stream ok")
	return 0
}
