package doccheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUndocumentedFindsEachKind pins what the gate reports: every kind of
// undocumented export (func, type, const, var) and nothing for documented,
// grouped-documented or unexported identifiers, or for _test.go files.
func TestUndocumentedFindsEachKind(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func Bare() {}

// Doc is documented.
func Doc() {}

func unexported() {}

type T int

const C = 1

var V = 2

// Group documents every name in it.
const (
	A = 1
	B = 2
)

var W = 3 // W has a line comment.
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p_test.go"), []byte("package p\n\nfunc TestX() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Undocumented(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"func Bare", "type T", "const C", "var V"}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d: %q", len(got), len(want), got)
	}
	for i, w := range want {
		if !strings.HasSuffix(got[i], "exported "+w+" has no doc comment") {
			t.Errorf("finding %d = %q, want exported %s", i, got[i], w)
		}
	}
}

// TestUndocumentedEmptyDirFails pins that a directory without non-test Go
// files is an error rather than a silent pass.
func TestUndocumentedEmptyDirFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "only_test.go"), []byte("package p\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Undocumented(dir); err == nil {
		t.Fatal("no error for a directory with only test files")
	}
	if _, err := Undocumented(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("no error for a missing directory")
	}
}
