package serve

import (
	"testing"

	"repro/internal/doccheck"
)

// TestExportedIdentifiersDocumented fails on any exported identifier in
// this package that lacks a doc comment — the same gate internal/coverage
// and internal/telemetry run, applied here because the serve package's
// exported surface doubles as the service's wire-format documentation.
func TestExportedIdentifiersDocumented(t *testing.T) {
	missing, err := doccheck.Undocumented(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Error(m)
	}
}
