package fault

// Verdict journaling: an append-only, line-delimited JSON record of a
// campaign's settled per-site verdicts, written with one write syscall per
// line so a SIGKILL can corrupt at most the final line. The journal opens
// with a content-addressed header (program image hash, fault-universe
// hash, environment hash), so resuming against a different program,
// universe or SoC configuration is refused instead of silently merged.
// Simulate consumes a Journal: settled sites are skipped and their
// recorded verdicts folded into the Report verbatim, which is what makes a
// resumed campaign bit-identical to an uninterrupted one. This is the
// shard-checkpoint primitive the ROADMAP's campaign service consumes.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
)

// JournalVersion is the on-disk format version; a mismatch refuses resume.
const JournalVersion = 1

// JournalHeader identifies the campaign a journal belongs to. Program,
// Universe and Env are content hashes (the caller decides what feeds them;
// core.CampaignFingerprint is the canonical producer): two campaigns with
// equal headers are the same pure function and may share verdicts.
type JournalHeader struct {
	Version  int    `json:"version"`
	Program  string `json:"program"`  // hash of the loaded image + data tables
	Universe string `json:"universe"` // HashSites of the ordered fault list
	Env      string `json:"env"`      // hash of SoC config, replay traffic, core, budget
	Sites    int    `json:"sites"`    // universe size (bounds the site indices)
}

// Key returns a filesystem-safe content address for the campaign, used to
// derive per-campaign journal filenames in a shared directory.
func (h JournalHeader) Key() string {
	k := fnv.New64a()
	fmt.Fprintf(k, "%d|%s|%s|%s|%d", h.Version, h.Program, h.Universe, h.Env, h.Sites)
	return fmt.Sprintf("%016x", k.Sum64())
}

// diff names the first header field that disagrees ("" when equal).
func (h JournalHeader) diff(o JournalHeader) string {
	switch {
	case h.Version != o.Version:
		return fmt.Sprintf("version %d != %d", o.Version, h.Version)
	case h.Program != o.Program:
		return fmt.Sprintf("program hash %s != %s", o.Program, h.Program)
	case h.Universe != o.Universe:
		return fmt.Sprintf("universe hash %s != %s", o.Universe, h.Universe)
	case h.Env != o.Env:
		return fmt.Sprintf("environment hash %s != %s", o.Env, h.Env)
	case h.Sites != o.Sites:
		return fmt.Sprintf("%d sites != %d", o.Sites, h.Sites)
	}
	return ""
}

// HashSites content-addresses an ordered fault universe. It hashes the
// bytes fmt's "%d.%d.%d.%d.%d.%d.%d.%d;" of each site's fields would
// print.
func HashSites(sites []Site) string {
	h := fnv.New64a()
	w := bufio.NewWriterSize(h, 4096)
	for _, s := range sites {
		b := w.AvailableBuffer()
		for _, v := range [...]uint8{uint8(s.Unit), uint8(s.Signal), uint8(s.Kind), s.Lane, s.Operand, s.Path, s.Bit, s.Stuck} {
			b = append(strconv.AppendUint(b, uint64(v), 10), '.')
		}
		b[len(b)-1] = ';'
		w.Write(b)
	}
	w.Flush()
	return fmt.Sprintf("%016x", h.Sum64())
}

// journalLine is one journal record. Kind selects the fields in use:
// "header" carries Header, "golden" carries Sig/OK, "site" carries the
// verdict of site Index (Site is the rendered name, informational only —
// the universe hash in the header is what authenticates indices).
type journalLine struct {
	Kind   string         `json:"kind"`
	Header *JournalHeader `json:"header,omitempty"`

	Sig uint32 `json:"sig"`
	OK  bool   `json:"ok,omitempty"`

	Index    int    `json:"i"`
	Site     string `json:"site,omitempty"`
	Crashed  bool   `json:"crashed,omitempty"`
	Panicked bool   `json:"panicked,omitempty"`
	Detected bool   `json:"detected,omitempty"`
	Msg      string `json:"msg,omitempty"`
	Stack    string `json:"stack,omitempty"`
}

// settledEntry is one settled verdict, loaded or recorded (Site left zero;
// the caller fills it from the universe the indices are authenticated
// against).
type settledEntry struct {
	res        SiteResult
	msg, stack string
}

// verdict is one slot of a journal's verdict table: a site's signature
// and its flags, 8 bytes.
type verdict struct {
	sig   uint32
	flags uint8
}

// Verdict flags.
const (
	vSettled uint8 = 1 << iota
	vDetected
	vCrashed
	vPanicked
)

// note is the message and stack a verdict carries, a panicked one's.
type note struct{ msg, stack string }

// Journal is an open verdict journal and the campaign's one verdict table:
// it holds every verdict it loaded or recorded, in one slot per site of
// the universe its header sizes, with the few messages and stacks (those
// of panicked runs) beside the table. Its methods are safe for concurrent
// use (the campaign's worker pool reads and appends from many
// goroutines).
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	header  JournalHeader
	table   []verdict
	notes   map[int]note
	n       int // settled slots
	golden  *journalLine
	dropped int   // truncated trailing lines discarded on load
	keep    int64 // byte length of the well-formed journal prefix
}

// newJournal returns an empty table for header h's universe.
func newJournal(path string, h JournalHeader) *Journal {
	return &Journal{path: path, header: h, table: make([]verdict, max(h.Sites, 0))}
}

// entry returns site i's verdict, if the table settles it. Callers hold
// j.mu or own j alone.
func (j *Journal) entry(i int) (settledEntry, bool) {
	if i < 0 || i >= len(j.table) || j.table[i].flags&vSettled == 0 {
		return settledEntry{}, false
	}
	v := j.table[i]
	e := settledEntry{res: SiteResult{
		Signature: v.sig,
		Detected:  v.flags&vDetected != 0,
		Crashed:   v.flags&vCrashed != 0,
		Panicked:  v.flags&vPanicked != 0,
	}}
	if nt, ok := j.notes[i]; ok {
		e.msg, e.stack = nt.msg, nt.stack
	}
	return e, true
}

// set settles site i, within the table, with e. Callers hold j.mu or own
// j alone.
func (j *Journal) set(i int, e settledEntry) {
	v := verdict{sig: e.res.Signature, flags: vSettled}
	if e.res.Detected {
		v.flags |= vDetected
	}
	if e.res.Crashed {
		v.flags |= vCrashed
	}
	if e.res.Panicked {
		v.flags |= vPanicked
	}
	if j.table[i].flags&vSettled == 0 {
		j.n++
	}
	j.table[i] = v
	switch {
	case e.msg != "" || e.stack != "":
		if j.notes == nil {
			j.notes = map[int]note{}
		}
		j.notes[i] = note{e.msg, e.stack}
	case j.notes != nil:
		delete(j.notes, i)
	}
}

// CreateJournal starts a fresh journal at path (truncating any previous
// file) and writes the header line.
func CreateJournal(path string, h JournalHeader) (*Journal, error) {
	h.Version = JournalVersion
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fault: journal: %w", err)
	}
	j := newJournal(path, h)
	j.f = f
	if err := j.append(journalLine{Kind: "header", Header: &h}); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// ResumeJournal opens an existing journal at path, validates its header
// against h, and loads the settled verdicts; a missing file starts a fresh
// journal (resuming nothing is an empty resume), and so does a file with no
// complete line — empty, or a lone torn header, which is what a kill
// between CreateJournal's truncating open and its header write leaves. A
// header that does not match, a conflicting duplicate verdict, or a
// malformed line anywhere but the very end is an error — the journal is
// either trusted whole or refused, never silently merged. A truncated final
// line (the signature of a mid-append SIGKILL), which is any final line
// without its newline, is dropped and its site recomputed.
func ResumeJournal(path string, h JournalHeader) (*Journal, error) {
	h.Version = JournalVersion
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CreateJournal(path, h)
	}
	if err != nil {
		return nil, fmt.Errorf("fault: journal: %w", err)
	}
	j := newJournal(path, h)
	if err := j.load(blob); err != nil {
		return nil, err
	}
	if j.keep == 0 {
		return CreateJournal(path, h)
	}
	if j.keep < int64(len(blob)) {
		// Cut the torn trailing line so new appends start on a line
		// boundary.
		if err := os.Truncate(path, j.keep); err != nil {
			return nil, fmt.Errorf("fault: journal %s: dropping torn line: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fault: journal: %w", err)
	}
	j.f = f
	return j, nil
}

// load parses the journal body into the verdict table.
func (j *Journal) load(blob []byte) error {
	lines := strings.Split(string(blob), "\n")
	// A well-formed journal ends in a newline, leaving one empty trailer.
	for len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	// A final line without its newline never completed, even when what
	// was written of it parses: appending after it would join the next
	// line onto it.
	torn := len(blob) > 0 && blob[len(blob)-1] != '\n'
	for n, raw := range lines {
		var ln journalLine
		err := json.Unmarshal([]byte(raw), &ln)
		if n == len(lines)-1 && (torn || err != nil) {
			// Mid-append kill: the final line never completed. Its
			// verdict is simply recomputed.
			j.dropped++
			continue
		}
		if err != nil {
			return fmt.Errorf("fault: journal %s: line %d corrupt (not at end of file): %v", j.path, n+1, err)
		}
		j.keep += int64(len(raw)) + 1 // the line and its newline
		switch ln.Kind {
		case "header":
			if n != 0 {
				return fmt.Errorf("fault: journal %s: stray header at line %d", j.path, n+1)
			}
			if ln.Header == nil {
				return fmt.Errorf("fault: journal %s: header line carries no header", j.path)
			}
			if d := j.header.diff(*ln.Header); d != "" {
				return fmt.Errorf("fault: journal %s belongs to a different campaign: %s", j.path, d)
			}
		case "golden":
			if j.golden != nil && (j.golden.Sig != ln.Sig || j.golden.OK != ln.OK) {
				return fmt.Errorf("fault: journal %s: conflicting golden records (%08x/%v vs %08x/%v)",
					j.path, j.golden.Sig, j.golden.OK, ln.Sig, ln.OK)
			}
			ln := ln
			j.golden = &ln
		case "site":
			if ln.Index < 0 || ln.Index >= j.header.Sites {
				return fmt.Errorf("fault: journal %s: site index %d outside universe of %d", j.path, ln.Index, j.header.Sites)
			}
			e := settledEntry{
				res: SiteResult{
					Signature: ln.Sig,
					Crashed:   ln.Crashed,
					Panicked:  ln.Panicked,
					Detected:  ln.Detected,
				},
				msg:   ln.Msg,
				stack: ln.Stack,
			}
			if prev, dup := j.entry(ln.Index); dup {
				if prev != e {
					return fmt.Errorf("fault: journal %s: conflicting duplicate verdicts for site %d (%+v vs %+v)",
						j.path, ln.Index, prev.res, e.res)
				}
				continue // identical duplicate: tolerated
			}
			j.set(ln.Index, e)
		default:
			return fmt.Errorf("fault: journal %s: line %d: unknown kind %q", j.path, n+1, ln.Kind)
		}
		if n == 0 && ln.Kind != "header" {
			return fmt.Errorf("fault: journal %s: first line is %q, want the header", j.path, ln.Kind)
		}
	}
	return nil
}

// append writes one line with a single Write call (the file is opened
// O_APPEND, so concurrent campaigns sharing a journal cannot interleave
// bytes, and a kill leaves at most one torn trailing line).
func (j *Journal) append(ln journalLine) error {
	blob, err := json.Marshal(ln)
	if err != nil {
		return fmt.Errorf("fault: journal: %w", err)
	}
	if _, err := j.f.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("fault: journal %s: %w", j.path, err)
	}
	return nil
}

// BindGolden reconciles this run's golden verdict with the journal: the
// first campaign records it, a resumed campaign must reproduce it exactly
// (a different golden means the environment is not the one journaled).
func (j *Journal) BindGolden(sig uint32, ok bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.golden != nil {
		if j.golden.Sig != sig || j.golden.OK != ok {
			return fmt.Errorf("fault: journal %s: golden %08x/%v does not reproduce the journaled %08x/%v",
				j.path, sig, ok, j.golden.Sig, j.golden.OK)
		}
		return nil
	}
	ln := journalLine{Kind: "golden", Sig: sig, OK: ok}
	if err := j.append(ln); err != nil {
		return err
	}
	j.golden = &ln
	return nil
}

// Settled returns site i's journaled verdict, if any. The returned
// SiteResult carries a zero Site; the caller owns the universe and fills
// it in.
func (j *Journal) Settled(i int) (res SiteResult, msg, stack string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entry(i)
	return e.res, e.msg, e.stack, ok
}

// SettledCount returns how many sites the journal settles.
func (j *Journal) SettledCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Unsettled returns the sorted site indices within [lo, hi) that the
// journal does not yet settle. A shard is complete exactly when this is
// empty.
func (j *Journal) Unsettled(lo, hi int) []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []int
	for i := lo; i < hi; i++ {
		if _, ok := j.entry(i); !ok {
			out = append(out, i)
		}
	}
	return out
}

// Golden returns the journaled golden verdict and whether one has been
// bound yet (by this process or a previous one).
func (j *Journal) Golden() (sig uint32, ok, bound bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.golden == nil {
		return 0, false, false
	}
	return j.golden.Sig, j.golden.OK, true
}

// Header returns the content-addressed campaign identity the journal was
// opened with.
func (j *Journal) Header() JournalHeader { return j.header }

// Dropped returns how many torn trailing lines were discarded on load.
func (j *Journal) Dropped() int { return j.dropped }

// Record appends site i's verdict and adds it to the journal's table. An
// index outside the header's universe is refused before anything is
// written, as a resume would refuse its line.
func (j *Journal) Record(i int, r SiteResult, msg, stack string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < 0 || i >= len(j.table) {
		return fmt.Errorf("fault: journal %s: site index %d outside universe of %d", j.path, i, j.header.Sites)
	}
	err := j.append(journalLine{
		Kind:     "site",
		Index:    i,
		Site:     r.Site.String(),
		Sig:      r.Signature,
		Crashed:  r.Crashed,
		Panicked: r.Panicked,
		Detected: r.Detected,
		Msg:      msg,
		Stack:    stack,
	})
	if err != nil {
		return err
	}
	r.Site = Site{}
	j.set(i, settledEntry{res: r, msg: msg, stack: stack})
	return nil
}

// Close releases the journal file. The journal remains resumable.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
