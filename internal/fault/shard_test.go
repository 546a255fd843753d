package fault

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestShardRanges(t *testing.T) {
	cases := []struct {
		total, size int
		want        []ShardRange
	}{
		{0, 4, nil},
		{-3, 4, nil},
		{10, 4, []ShardRange{{0, 4}, {4, 8}, {8, 10}}},
		{8, 4, []ShardRange{{0, 4}, {4, 8}}},
		{3, 0, []ShardRange{{0, 3}}},
		{3, -1, []ShardRange{{0, 3}}},
		{3, 100, []ShardRange{{0, 3}}},
		{1, 1, []ShardRange{{0, 1}}},
	}
	for _, c := range cases {
		got := ShardRanges(c.total, c.size)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ShardRanges(%d, %d) = %v, want %v", c.total, c.size, got, c.want)
		}
	}
	// The partition is exact: every index appears in exactly one range.
	covered := 0
	for _, r := range ShardRanges(1037, 64) {
		if r.Lo != covered {
			t.Fatalf("range %v does not start where the previous ended (%d)", r, covered)
		}
		if r.Len() <= 0 {
			t.Fatalf("empty range %v", r)
		}
		covered = r.Hi
	}
	if covered != 1037 {
		t.Fatalf("ranges cover %d of 1037 sites", covered)
	}
}

func TestJournalShardState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	h := JournalHeader{Program: "p", Universe: "u", Env: "e", Sites: 10}
	j, err := CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.BindGolden(0xdead, true); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 3, 4, 9} {
		res := SiteResult{Signature: uint32(i), Detected: true}
		if err := j.Record(i, res, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	// The writer's own table reflects its records without a reload.
	if got, want := j.Unsettled(0, 10), []int{0, 2, 5, 6, 7, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("writer Unsettled(0,10) = %v, want %v", got, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := ResumeJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.Unsettled(0, 10), []int{0, 2, 5, 6, 7, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("Unsettled(0,10) = %v, want %v", got, want)
	}
	if got, want := r.Unsettled(0, 5), []int{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("Unsettled(0,5) = %v, want %v", got, want)
	}
	if got := r.Unsettled(3, 5); got != nil {
		t.Errorf("Unsettled(3,5) = %v, want nil (shard complete)", got)
	}
	sig, ok, bound := r.Golden()
	if !bound || sig != 0xdead || !ok {
		t.Errorf("Golden = %08x/%v bound=%v, want dead/true bound", sig, ok, bound)
	}
	if got := r.Header(); got.Universe != "u" || got.Sites != 10 {
		t.Errorf("Header = %+v", got)
	}
}
