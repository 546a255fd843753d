package fault

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// syntheticRun mirrors TestSimulateSyntheticCampaign's runner: faults on
// lane-0 operand-A mux data lines perturb the signature, all else is
// silent.
func syntheticRun(p Plane) (uint32, bool) {
	v := p.MuxData(0, 0, PathEXL0, 0x1234)
	v = p.MuxData(0, 0, PathEXL1, v)
	v = p.MuxData(0, 0, PathMEML0, v)
	v = p.MuxData(0, 0, PathMEML1, v)
	return uint32(v), true
}

func syntheticSites() []Site {
	return ForwardingLogic(ListOptions{DataBits: 32, BitStep: 8})
}

func TestSimulatePanicIsolation(t *testing.T) {
	sites := syntheticSites()
	// The runner panics on exactly one site: lane 1 opB path 5 bit 0 SA1.
	bad := Site{Unit: UnitFwd, Signal: SigMuxData, Lane: 1, Operand: 1,
		Path: PathCascade, Bit: 0, Stuck: 1}
	badIdx := -1
	for i, s := range sites {
		if s == bad {
			badIdx = i
		}
	}
	if badIdx < 0 {
		t.Fatal("panic site not in universe")
	}
	run := func(p Plane) (uint32, bool) {
		if f, ok := p.(*Single); ok && f.S == bad {
			panic("injected simulator defect")
		}
		return syntheticRun(p)
	}
	rep := simulateShared(sites, run, 4)
	clean := simulateShared(sites, syntheticRun, 4)

	if rep.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", rep.Panics)
	}
	got := rep.Results[badIdx]
	want := SiteResult{Site: bad, Detected: true, Signature: 0, Crashed: true, Panicked: true}
	if got != want {
		t.Errorf("panicked verdict %+v, want %+v", got, want)
	}
	// Every other verdict is exactly the clean campaign's.
	for i := range rep.Results {
		if i == badIdx {
			continue
		}
		if rep.Results[i] != clean.Results[i] {
			t.Fatalf("site %d verdict changed by unrelated panic: %+v vs %+v",
				i, rep.Results[i], clean.Results[i])
		}
	}
	if len(rep.Anomalies) != 1 {
		t.Fatalf("anomalies = %d, want 1", len(rep.Anomalies))
	}
	a := rep.Anomalies[0]
	if a.Index != badIdx || a.Site != bad || !strings.Contains(a.Msg, "injected simulator defect") || a.Stack == "" {
		t.Errorf("anomaly %+v lacks index/site/message/stack", a)
	}
	if !strings.Contains(rep.String(), "panicked") {
		t.Errorf("report string hides panics: %q", rep.String())
	}
}

func TestSimulateGoldenPanicSurvives(t *testing.T) {
	sites := syntheticSites()[:8]
	run := func(p Plane) (uint32, bool) {
		if p == None {
			panic("golden run defect")
		}
		return syntheticRun(p)
	}
	rep := simulateShared(sites, run, 2)
	if rep.GoldenOK {
		t.Error("panicked golden run reported OK")
	}
	if len(rep.Results) != len(sites) {
		t.Error("campaign did not complete")
	}
	if len(rep.Anomalies) == 0 || rep.Anomalies[0].Index != -1 {
		t.Errorf("golden anomaly missing: %+v", rep.Anomalies)
	}
}

func testHeader(sites []Site) JournalHeader {
	return JournalHeader{
		Program:  "prog-hash",
		Universe: HashSites(sites),
		Env:      "env-hash",
		Sites:    len(sites),
	}
}

// journalCampaign runs the synthetic campaign against the journal at path,
// tracking which site indices were actually executed (vs settled from the
// journal).
func journalCampaign(t *testing.T, path string, sites []Site) (Report, map[int]bool) {
	t.Helper()
	j, err := ResumeJournal(path, testHeader(sites))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var mu sync.Mutex
	ran := map[int]bool{}
	idxOf := map[Site]int{}
	for i, s := range sites {
		idxOf[s] = i
	}
	run := func(p Plane) (uint32, bool) {
		if f, ok := p.(*Single); ok {
			mu.Lock()
			ran[idxOf[f.S]] = true
			mu.Unlock()
		}
		return syntheticRun(p)
	}
	rep, err := Simulate(sites, []RunFunc{run, run}, SimOptions{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	return rep, ran
}

func TestJournalResumeBitIdenticalAfterTruncation(t *testing.T) {
	sites := syntheticSites()
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.journal")
	killedPath := filepath.Join(dir, "killed.journal")

	full, _ := journalCampaign(t, fullPath, sites)

	// Forge the killed journal: the full journal cut mid-append — a prefix
	// of whole lines plus one torn line.
	blob, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(blob), "\n")
	if len(lines) < 10 {
		t.Fatalf("journal too short to truncate (%d lines)", len(lines))
	}
	partial := strings.Join(lines[:7], "") + lines[7][:len(lines[7])/2]
	if err := os.WriteFile(killedPath, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, ran := journalCampaign(t, killedPath, sites)
	// The five settled site verdicts (lines 2..6 after header+golden) must
	// not have been re-run...
	settled := 0
	for i := range sites {
		if !ran[i] {
			settled++
		}
	}
	if settled != 5 {
		t.Errorf("resume re-ran settled sites: %d skipped, want 5", settled)
	}
	// ...and the resumed report is bit-identical to the uninterrupted one.
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resumed report differs from uninterrupted:\nfull    %+v\nresumed %+v", full, resumed)
	}

	// A second resume settles everything from the journal and re-runs
	// nothing.
	again, ran := journalCampaign(t, killedPath, sites)
	if len(ran) != 0 {
		t.Errorf("full journal still re-ran %d sites", len(ran))
	}
	if !reflect.DeepEqual(full, again) {
		t.Fatal("fully journaled report differs from uninterrupted")
	}
}

func TestJournalTruncatedFinalLineDropped(t *testing.T) {
	sites := syntheticSites()[:6]
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	journalCampaign(t, path, sites)
	blob, _ := os.ReadFile(path)
	os.WriteFile(path, blob[:len(blob)-3], 0o644) // tear the last line

	j, err := ResumeJournal(path, testHeader(sites))
	if err != nil {
		t.Fatalf("torn trailing line refused: %v", err)
	}
	defer j.Close()
	if j.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", j.Dropped())
	}
	if j.SettledCount() != len(sites)-1 {
		t.Errorf("settled %d of %d after tear", j.SettledCount(), len(sites))
	}
}

// TestJournalWithoutFinalNewlineResumes covers a journal cut by exactly
// its last byte, the newline: the final line parses, but it never
// completed, so resume drops it like any torn line. Otherwise the next
// append would join that line, and the resume after it would refuse the
// whole journal as corrupt mid-file.
func TestJournalWithoutFinalNewlineResumes(t *testing.T) {
	sites := syntheticSites()[:4]
	h := testHeader(sites)
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if err := j.Record(i, SiteResult{Site: sites[i], Signature: uint32(i)}, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j, err = ResumeJournal(path, h)
	if err != nil {
		t.Fatalf("resume refused: %v", err)
	}
	if j.SettledCount() != 2 || j.Dropped() != 1 {
		t.Errorf("resume settles %d and drops %d, want 2 and 1", j.SettledCount(), j.Dropped())
	}
	for _, i := range []int{2, 3} {
		if err := j.Record(i, SiteResult{Site: sites[i], Signature: uint32(i)}, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j, err = ResumeJournal(path, h)
	if err != nil {
		t.Fatalf("second resume refused: %v", err)
	}
	defer j.Close()
	if j.SettledCount() != len(sites) || j.Dropped() != 0 {
		t.Errorf("second resume settles %d and drops %d, want %d and 0", j.SettledCount(), j.Dropped(), len(sites))
	}
}

// TestJournalWithoutHeaderStartsFresh covers what a kill between
// CreateJournal's truncating open and its header write leaves: an empty
// file, or a lone torn header line. Neither settles a verdict, so resume
// opens both as a fresh journal with a header, and that journal resumes
// again with the verdict recorded into it.
func TestJournalWithoutHeaderStartsFresh(t *testing.T) {
	sites := syntheticSites()[:4]
	h := testHeader(sites)
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.journal")
	j, err := CreateJournal(whole, h)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	header, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"torn header", header[:len(header)/2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.journal")
			if err := os.WriteFile(path, tc.blob, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := ResumeJournal(path, h)
			if err != nil {
				t.Fatalf("resume refused: %v", err)
			}
			want := SiteResult{Site: sites[2], Signature: 0xbeef, Detected: true}
			if err := j.Record(2, want, "", ""); err != nil {
				t.Fatal(err)
			}
			j.Close()

			j, err = ResumeJournal(path, h)
			if err != nil {
				t.Fatalf("second resume refused: %v", err)
			}
			defer j.Close()
			want.Site = Site{}
			if got, _, _, ok := j.Settled(2); !ok || got != want || j.SettledCount() != 1 {
				t.Errorf("second resume settles %d verdicts, site 2: %+v (ok=%v), want %+v",
					j.SettledCount(), got, ok, want)
			}
		})
	}
}

func TestJournalMidFileCorruptionRefused(t *testing.T) {
	sites := syntheticSites()[:6]
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	journalCampaign(t, path, sites)
	blob, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(blob), "\n")
	lines[2] = "{torn mid-file garbage\n"
	os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644)

	if _, err := ResumeJournal(path, testHeader(sites)); err == nil {
		t.Fatal("mid-file corruption silently accepted")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestJournalDuplicateSiteEntries(t *testing.T) {
	sites := syntheticSites()[:6]
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	rep, _ := journalCampaign(t, path, sites)

	blob, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(blob), "\n")
	var siteLine string
	for _, ln := range lines {
		if strings.Contains(ln, `"kind":"site"`) {
			siteLine = ln
			break
		}
	}
	if siteLine == "" {
		t.Fatal("no site line in journal")
	}

	// An identical duplicate (a retried append) is tolerated.
	os.WriteFile(path, append(blob, siteLine...), 0o644)
	dup, ran := journalCampaign(t, path, sites)
	if len(ran) != 0 || !reflect.DeepEqual(rep, dup) {
		t.Error("identical duplicate not folded cleanly")
	}

	// A conflicting duplicate is refused.
	conflict := strings.Replace(siteLine, `"sig":`, `"detected":true,"sig":9`, 1)
	if conflict == siteLine {
		t.Fatal("failed to forge conflicting line")
	}
	os.WriteFile(path, append(blob, conflict...), 0o644)
	if _, err := ResumeJournal(path, testHeader(sites)); err == nil {
		t.Fatal("conflicting duplicate silently merged")
	} else if !strings.Contains(err.Error(), "conflicting duplicate") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestJournalHeaderMismatchRefused(t *testing.T) {
	sites := syntheticSites()[:6]
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	journalCampaign(t, path, sites)

	h := testHeader(sites)
	h.Program = "different-program"
	if _, err := ResumeJournal(path, h); err == nil {
		t.Fatal("program-hash mismatch silently accepted")
	} else if !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("unhelpful error: %v", err)
	}

	h = testHeader(sites)
	h.Universe = "0000000000000000"
	if _, err := ResumeJournal(path, h); err == nil {
		t.Fatal("universe mismatch silently accepted")
	}
}

func TestJournalGoldenMismatchRefused(t *testing.T) {
	sites := syntheticSites()[:4]
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	j, err := CreateJournal(path, testHeader(sites))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.BindGolden(0x1234, true); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, err = ResumeJournal(path, testHeader(sites))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.BindGolden(0x1234, true); err != nil {
		t.Errorf("matching golden refused: %v", err)
	}
	if err := j.BindGolden(0x9999, true); err == nil {
		t.Fatal("mismatched golden accepted")
	}
}

// TestJournalRecordRefusesIndexOutsideUniverse pins that Record refuses a
// site index outside the header's universe before writing it, as a resume
// would refuse its line, so the journal stays resumable with the verdicts
// it took, a panicked one's message and stack included.
func TestJournalRecordRefusesIndexOutsideUniverse(t *testing.T) {
	sites := syntheticSites()[:4]
	h := testHeader(sites)
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, len(sites)} {
		if err := j.Record(i, SiteResult{Signature: 1, Detected: true}, "", ""); err == nil {
			t.Errorf("Record(%d) of a %d-site universe accepted", i, len(sites))
		}
	}
	want := SiteResult{Detected: true, Crashed: true, Panicked: true}
	if err := j.Record(3, want, "boom", "stack"); err != nil {
		t.Fatal(err)
	}
	j.Close()
	r, err := ResumeJournal(path, h)
	if err != nil {
		t.Fatalf("journal refused after refused records: %v", err)
	}
	defer r.Close()
	res, msg, stack, ok := r.Settled(3)
	if n := r.SettledCount(); n != 1 || !ok || res != want || msg != "boom" || stack != "stack" {
		t.Errorf("resumed %d verdicts, site 3: %+v %q %q %v", n, res, msg, stack, ok)
	}
}

func TestJournalPanickedVerdictRoundTrips(t *testing.T) {
	sites := syntheticSites()[:4]
	bad := sites[2]
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")

	run := func(p Plane) (uint32, bool) {
		if f, ok := p.(*Single); ok && f.S == bad {
			panic("journaled defect")
		}
		return syntheticRun(p)
	}
	j, err := CreateJournal(path, testHeader(sites))
	if err != nil {
		t.Fatal(err)
	}
	first, err := Simulate(sites, []RunFunc{run}, SimOptions{Journal: j})
	j.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Resume with a runner that would halt cleanly everywhere: the
	// journaled panicked verdict must win, message and stack included.
	resumed, ran := journalCampaign(t, path, sites)
	if len(ran) != 0 {
		t.Error("settled sites re-ran")
	}
	if !reflect.DeepEqual(first.Results, resumed.Results) || resumed.Panics != 1 {
		t.Fatalf("panicked verdict not reproduced: %+v", resumed.Results[2])
	}
	if len(resumed.Anomalies) != 1 || !strings.Contains(resumed.Anomalies[0].Msg, "journaled defect") ||
		resumed.Anomalies[0].Stack == "" {
		t.Errorf("journaled anomaly lost: %+v", resumed.Anomalies)
	}
}

func TestHashSitesDistinguishesUniverses(t *testing.T) {
	a := syntheticSites()
	b := append([]Site{}, a...)
	if HashSites(a) != HashSites(b) {
		t.Error("equal universes hash differently")
	}
	b[0].Bit ^= 1
	if HashSites(a) == HashSites(b) {
		t.Error("different universes collide")
	}
	if HashSites(a[:len(a)-1]) == HashSites(a) {
		t.Error("prefix universe collides")
	}
}
