//go:build !race

// The allocation guard lives behind !race: the race detector instruments
// allocations and would trip the bound.

package store

import (
	"context"
	"testing"
)

// TestLoadAllocationBound guards the cost of a disk-tier hit: a Load reads,
// validates and decodes one entry file in a few allocations (11 untraced
// when the bound was set; the gob decode it replaced took 358).
func TestLoadAllocationBound(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	saveSync(t, s, "a110c5", goldenStats())
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok := s.Load(ctx, "a110c5"); !ok {
			t.Fatal("Load missed a saved entry")
		}
	})
	t.Logf("Load: %.0f allocations", allocs)
	if allocs > 32 {
		t.Errorf("Load allocated %.0f times per call, want <= 32", allocs)
	}
}
