package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// asMainEnv, when set to 1, makes the test binary run faultsim's main with
// its own arguments: subprocess tests exec os.Args[0] as faultsim without a
// separate build step.
const asMainEnv = "FAULTSIM_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// faultsim returns a command running faultsim with args.
func faultsim(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	return cmd
}

// runFaultsim runs faultsim to completion, failing the test on a non-zero
// exit.
func runFaultsim(t *testing.T, args ...string) {
	t.Helper()
	if out, err := faultsim(args...).CombinedOutput(); err != nil {
		t.Fatalf("faultsim %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}

// journalLines counts the complete lines of a journal file (0 while it does
// not exist yet).
func journalLines(t *testing.T, path string) int {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return bytes.Count(blob, []byte{'\n'})
}

// sameFile fails the test unless files a and b are byte-identical.
func sameFile(t *testing.T, a, b string) {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Fatalf("%s and %s differ", filepath.Base(a), filepath.Base(b))
	}
}

// TestKillResumeBitIdentical is the crash-safety acceptance check at
// process granularity: run a journaled campaign to completion, SIGKILL a
// second identical run once a third of the full run's journal lines are
// written, resume it from its torn journal, and require the resumed report
// to be byte-identical to the uninterrupted one. The reference leg runs
// the full-budget mode on one worker, slow enough that the journal grows
// line by line; the checkpointed leg runs the transition universe in the
// optimized mode, with its golden-run checkpoints, and must also match a
// reference-mode run.
func TestKillResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		args string
		off  string // when set, the full report must equal this run's
	}{
		{name: "reference",
			args: "-routine forwarding -core 0 -strategy plain -bitstep 1 -engine reference -workers 1"},
		{name: "checkpointed",
			args: "-routine forwarding -core 0 -strategy cache -faults transition -bitstep 1 -engine arena -workers 1",
			off:  "-routine forwarding -core 0 -strategy cache -faults transition -bitstep 1 -engine reference -workers 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			file := func(name string) string { return filepath.Join(dir, name) }
			args := strings.Fields(tc.args)
			with := func(extra ...string) []string { return append(append([]string(nil), args...), extra...) }

			runFaultsim(t, with("-journal", file("full.journal"), "-report", file("full.json"))...)
			if tc.off != "" {
				runFaultsim(t, append(strings.Fields(tc.off), "-report", file("off.json"))...)
				sameFile(t, file("full.json"), file("off.json"))
			}
			total := journalLines(t, file("full.journal"))

			cmd := faultsim(with("-journal", file("killed.journal"))...)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			exited := make(chan struct{})
			go func() {
				_ = cmd.Wait() // a SIGKILLed run exits non-zero by design
				close(exited)
			}()
			// SIGKILL once a third of the verdicts are journaled —
			// progress-based, so the kill is mid-flight on any machine.
			for journalLines(t, file("killed.journal")) < total/3 {
				select {
				case <-exited:
					t.Fatal("campaign finished before the kill")
				case <-time.After(time.Millisecond):
				}
			}
			_ = cmd.Process.Kill() // fails only if the run already exited, caught below
			<-exited
			settled := journalLines(t, file("killed.journal"))
			t.Logf("killed after %d of %d journal lines", settled, total)
			if settled >= total {
				t.Fatalf("kill landed after the campaign finished (%d of %d lines)", settled, total)
			}

			runFaultsim(t, with("-journal", file("killed.journal"), "-resume", "-report", file("resumed.json"))...)
			sameFile(t, file("full.json"), file("resumed.json"))
		})
	}
}

// TestResumeWithoutJournalFails pins that -resume without -journal is
// refused with a non-zero exit instead of silently running a fresh
// campaign.
func TestResumeWithoutJournalFails(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	out, err := faultsim("-routine", "forwarding", "-core", "0", "-strategy", "plain",
		"-bitstep", "8", "-resume", "-report", report).CombinedOutput()
	if err == nil {
		t.Fatalf("faultsim -resume without -journal exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "resume without a journal") {
		t.Errorf("unhelpful error:\n%s", out)
	}
	if _, err := os.Stat(report); !os.IsNotExist(err) {
		t.Errorf("a report was written (stat: %v)", err)
	}
}
