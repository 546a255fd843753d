package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// journalSite is a site line of a store journal.
type journalSite struct {
	Kind     string `json:"kind"`
	Index    int    `json:"i"`
	Site     string `json:"site"`
	Sig      uint32 `json:"sig"`
	Crashed  bool   `json:"crashed"`
	Panicked bool   `json:"panicked"`
	Detected bool   `json:"detected"`
}

// journalSites reads the site lines of the journal at path in file order.
func journalSites(t *testing.T, path string) []journalSite {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []journalSite
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ln journalSite
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if ln.Kind == "site" {
			out = append(out, ln)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// siteEvent is the site event a stream carries for journal line v, with
// no timestamp.
func (v journalSite) siteEvent(fromStore bool) telemetry.Event {
	return telemetry.Event{Kind: telemetry.EventSite, Index: v.Index, Site: v.Site, Sig: v.Sig,
		Detected: v.Detected, Crashed: v.Crashed, Panicked: v.Panicked, FromJournal: fromStore}
}

// decodeStream decodes an event stream with the strict schema and splits
// it into its start event, site events and finish event.
func decodeStream(t *testing.T, raw []byte) (start telemetry.Event, sites []telemetry.Event, finish telemetry.Event) {
	t.Helper()
	events, err := telemetry.DecodeEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if len(events) < 2 || events[0].Kind != telemetry.EventStart || events[len(events)-1].Kind != telemetry.EventFinish {
		t.Fatalf("stream of %d events does not run from start to finish", len(events))
	}
	return events[0], events[1 : len(events)-1], events[len(events)-1]
}

// untimed returns a copy of events with every timestamp cleared.
func untimed(events []telemetry.Event) []telemetry.Event {
	out := append([]telemetry.Event(nil), events...)
	for k := range out {
		out[k].T = 0
	}
	return out
}

// TestEventStreamFollowsSettleLog pins the event streams a job renders
// from its settle log, its universe and its verdict table. A cold job that
// finds one shard of its universe in the store (journaled last site
// first) streams one site event per settled verdict, in settle order: the
// store's verdicts in universe order at submission, then the workers' in
// the order the store journal took them. Each carries the journal's
// signature, flags and site name, and `journal` exactly when the store
// settled it; its t never decreases and lies between the start's and the
// finish's. A follower attached while the job runs reads the same stream,
// timestamps included, as one attached after it finished. A full hit of
// the spec then streams every verdict in universe order, from the store,
// at its start time.
func TestEventStreamFollowsSettleLog(t *testing.T) {
	spec := quickSpec()
	dir := t.TempDir()

	// A first server settles one shard into the store, its verdicts taken
	// from a direct run and posted last site first, then closes.
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.RunCampaignOpts(c.Cfg, c.Core, c.Job, c.Sites, c.Budget, core.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv0, hs0 := startServer(t, Config{StoreDir: dir, ShardSize: 7})
	first := submit(t, hs0.URL, spec, "")
	l := leaseAll(t, hs0.URL, "w0")[0]
	batch := VerdictBatch{Worker: "w0", Golden: rep.Golden, GoldenOK: rep.GoldenOK}
	for i := l.Shard.Hi - 1; i >= l.Shard.Lo; i-- {
		r := rep.Results[i]
		batch.Verdicts = append(batch.Verdicts, Verdict{I: i, Sig: r.Signature, Detected: r.Detected, Crashed: r.Crashed, Panicked: r.Panicked})
	}
	body, _ := json.Marshal(batch)
	if code := postBody(t, fmt.Sprintf("%s/v1/jobs/%s/shards/%s/verdicts", hs0.URL, l.Job, l.Shard), body); code != http.StatusOK {
		t.Fatalf("verdict post: %d", code)
	}
	hs0.Close()
	_ = srv0.Close()
	journal := filepath.Join(dir, first.Key+".journal")
	stored := journalSites(t, journal)
	if len(stored) == 0 || len(stored) >= first.Sites {
		t.Fatalf("the store settles %d of %d sites, want one shard", len(stored), first.Sites)
	}

	_, hs := startServer(t, Config{StoreDir: dir, ShardSize: 7})
	st := submit(t, hs.URL, spec, "")
	if st.State != "running" || st.FromCache != len(stored) {
		t.Fatalf("submission: state %q, %d from the store, want running with %d", st.State, st.FromCache, len(stored))
	}
	events := "/v1/jobs/" + st.ID + "/events"
	// The server flushes the follower's stream once it has rendered the
	// store's verdicts, so the response is open before any worker runs.
	resp, err := http.Get(hs.URL + events)
	if err != nil {
		t.Fatal(err)
	}
	followed := make(chan []byte)
	go func() {
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followed <- raw
	}()
	w := &Worker{Server: hs.URL, Name: "w1", Workers: 2, Drain: true}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	live := <-followed
	_, late := getRaw(t, hs.URL, events)
	if !bytes.Equal(live, late) {
		t.Errorf("the follower attached while the job ran read %d bytes, the one attached after it finished %d bytes, not the same stream",
			len(live), len(late))
	}

	all := journalSites(t, journal)
	sort.Slice(stored, func(a, b int) bool { return stored[a].Index < stored[b].Index })
	var want []telemetry.Event
	for _, v := range stored {
		want = append(want, v.siteEvent(true))
	}
	for _, v := range all[len(stored):] {
		want = append(want, v.siteEvent(false))
	}
	start, sites, finish := decodeStream(t, late)
	if start.Sites != st.Sites || len(all) != st.Sites {
		t.Fatalf("start event of %d sites, journal of %d, job of %d", start.Sites, len(all), st.Sites)
	}
	if got := untimed(sites); !reflect.DeepEqual(got, want) {
		t.Errorf("site events differ from the journal's verdicts in settle order:\n got %+v\nwant %+v", got, want)
	}
	prev := start.T
	for _, e := range sites {
		if e.T < prev {
			t.Errorf("site %d settled at %d, before the previous event's %d", e.Index, e.T, prev)
		}
		prev = e.T
	}
	if finish.T < prev {
		t.Errorf("finish event at %d, before the last site event's %d", finish.T, prev)
	}
	detected := 0
	for _, v := range all {
		if v.Detected {
			detected++
		}
	}
	if finish.Sites != st.Sites || finish.Settled != int64(st.Sites) || finish.DetectedTotal != int64(detected) {
		t.Errorf("finish event %+v, want %d sites settled, %d detected", finish, st.Sites, detected)
	}

	hit := submit(t, hs.URL, spec, "")
	if hit.State != "done" || hit.Simulated != 0 {
		t.Fatalf("resubmission: state %q, %d simulated, want a full hit", hit.State, hit.Simulated)
	}
	_, raw := getRaw(t, hs.URL, "/v1/jobs/"+hit.ID+"/events")
	start, sites, _ = decodeStream(t, raw)
	sort.Slice(all, func(a, b int) bool { return all[a].Index < all[b].Index })
	want = want[:0]
	for _, v := range all {
		want = append(want, v.siteEvent(true))
	}
	if got := untimed(sites); !reflect.DeepEqual(got, want) {
		t.Errorf("full hit: site events differ from the verdict table in universe order")
	}
	for _, e := range sites {
		if e.T != start.T {
			t.Fatalf("full hit: site %d stamped %d, want the start time %d", e.Index, e.T, start.T)
		}
	}
}
