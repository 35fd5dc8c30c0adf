package allocfree_test

import (
	"testing"

	"tsnoop/internal/analysis/allocfree"
	"tsnoop/internal/analysis/analysistest"
)

// TestAllocFree checks the positive diagnostics in the hot-path fixture
// packages and, via the service fixture (which boxes payloads and
// touches maps on scheduled events without a single want comment), that
// the analyzer is scoped to the hot-path packages.
func TestAllocFree(t *testing.T) {
	analysistest.Run(t, "testdata", allocfree.Analyzer,
		"tsnoop/internal/tsnet",
		"tsnoop/internal/obs",
		"tsnoop/internal/service",
	)
}
