package determinism_test

import (
	"testing"

	"tsnoop/internal/analysis/analysistest"
	"tsnoop/internal/analysis/determinism"
)

// TestDeterminism covers a deterministic-core fixture (wall clock,
// global math/rand, goroutines, map ranges, and the sanctioned forms of
// each), the parallel-package goroutine exemption, a service fixture
// proving packages outside the core are not analyzed, and a cluster
// fixture exercising the wallclock/goroutine suppression markers.
func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer,
		"tsnoop/internal/tsnet",
		"tsnoop/internal/parallel",
		"tsnoop/internal/service",
		"tsnoop/internal/cluster",
		"tsnoop/internal/fault",
		"tsnoop/internal/protocol",
	)
}
