package fault

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzResumeJournal feeds arbitrary bytes to ResumeJournal as a journal of
// a fixed campaign. Whatever it does not refuse must take one more verdict
// and resume again with every verdict, the golden included, kept: a
// journal is either trusted whole or refused. The seeds are a real
// journal (golden, clean, detected and panicked verdicts) and what a kill
// or a copy can leave of it, including the journal cut by its final
// newline; they run under plain `go test`.
func FuzzResumeJournal(f *testing.F) {
	sites := syntheticSites()[:8]
	h := testHeader(sites)
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, err := CreateJournal(path, h)
	if err != nil {
		f.Fatal(err)
	}
	run := func(p Plane) (uint32, bool) {
		if s, ok := p.(*Single); ok && s.S == sites[5] {
			panic("seeded panic")
		}
		return syntheticRun(p)
	}
	if _, err := Simulate(sites[:6], []RunFunc{run}, SimOptions{Journal: j}); err != nil {
		f.Fatal(err)
	}
	j.Close()
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-1])                            // cut by its final newline
	f.Add(journal[:len(journal)-7])                            // torn final line
	f.Add(append(append([]byte(nil), journal...), journal...)) // a second header mid-file
	f.Add(append(append([]byte(nil), journal...), "\n\n"...))  // blank trailer
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		path := filepath.Join(t.TempDir(), "j.journal")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := ResumeJournal(path, h)
		if err != nil {
			return // refused whole
		}
		// One more verdict: the first site the journal leaves unsettled, or
		// an identical duplicate of site 0's when it settles them all.
		i, res, msg, stack := 0, SiteResult{Signature: 0xfeed, Detected: true}, "", ""
		if u := j.Unsettled(0, h.Sites); len(u) > 0 {
			i = u[0]
		} else {
			res, msg, stack, _ = j.Settled(0)
		}
		res.Site = sites[i]
		if err := j.Record(i, res, msg, stack); err != nil {
			t.Fatal(err)
		}
		want := journalVerdicts(j)
		j.Close()

		again, err := ResumeJournal(path, h)
		if err != nil {
			t.Fatalf("journal refused after one more verdict: %v", err)
		}
		defer again.Close()
		if got := journalVerdicts(again); !reflect.DeepEqual(got, want) {
			t.Fatalf("resumed journal holds\n%+v\nwant\n%+v", got, want)
		}
	})
}

// journalState is what a journal settles: every site verdict with its
// message and stack, and the golden.
type journalState struct {
	settled map[int]settledEntry
	golden  journalLine
	bound   bool
}

// journalVerdicts copies what j settles.
func journalVerdicts(j *Journal) journalState {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := journalState{settled: map[int]settledEntry{}}
	for i := range j.table {
		if e, ok := j.entry(i); ok {
			st.settled[i] = e
		}
	}
	if j.golden != nil {
		st.golden, st.bound = *j.golden, true
	}
	return st
}
