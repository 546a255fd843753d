package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "faultserve base URL")
	name := flag.String("name", "", "worker name recorded on leases (default host:pid)")
	workers := flag.Int("workers", 0, "arena goroutines per job (0 = GOMAXPROCS)")
	poll := flag.Duration("poll", serve.DefaultPoll, "idle re-poll interval when no work is pending")
	drain := flag.Bool("drain", false, "exit successfully on the first idle poll instead of waiting for more work")
	telemetryAddr := flag.String("telemetry", "", "serve Prometheus /metrics and /debug/pprof on this address (:0 picks a free port, printed to stderr)")
	flag.Parse()

	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	reg := telemetry.NewRegistry()
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultworker:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "faultworker: telemetry on http://%s/metrics\n", srv.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &serve.Worker{
		Server:    *server,
		Name:      *name,
		Workers:   *workers,
		Poll:      *poll,
		Drain:     *drain,
		Telemetry: reg,
	}
	t0 := time.Now()
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "faultworker:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "faultworker: %s done in %s\n", *name, time.Since(t0).Round(time.Millisecond))
}
