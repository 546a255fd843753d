package coverage

import (
	"testing"

	"repro/internal/doccheck"
)

// TestExportedIdentifiersDocumented fails on any exported identifier in
// this package that lacks a doc comment. CI runs it as the doc-presence
// gate for the coverage API (go vet covers the rest of the tree).
func TestExportedIdentifiersDocumented(t *testing.T) {
	missing, err := doccheck.Undocumented(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Error(m)
	}
}
