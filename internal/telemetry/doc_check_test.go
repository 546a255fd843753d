package telemetry

import (
	"testing"

	"repro/internal/doccheck"
)

// TestExportedIdentifiersDocumented fails on any exported identifier in
// this package that lacks a doc comment — the same gate internal/coverage
// runs, applied here because telemetry is the extension point every new
// campaign metric lands in.
func TestExportedIdentifiersDocumented(t *testing.T) {
	missing, err := doccheck.Undocumented(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Error(m)
	}
}
