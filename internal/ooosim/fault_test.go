package ooosim

import (
	"testing"

	"oovec/internal/isa"
)

// TestRollbackCorruptionErrorDeterministic is the regression test for the
// defect the determinism analyzer caught in RunWithFault: the post-rollback
// invariant check used to range over the map form of the rename tables, so
// with more than one corrupt table the reported class changed from run to
// run with Go's randomised map iteration order. The check now scans the
// class-indexed array and must always blame the same (lowest) class.
func TestRollbackCorruptionErrorDeterministic(t *testing.T) {
	first := ""
	for i := 0; i < 50; i++ {
		m := newMachine(DefaultConfig().WithDefaults())
		// Corrupt two classes: dropping a live mapping's last reference
		// pushes the register onto the free list while it is still mapped,
		// which CheckInvariants rejects.
		for _, class := range []isa.RegClass{isa.RegA, isa.RegV} {
			tb := m.tables[class]
			tb.Release(tb.Lookup(0), 0)
		}
		err := m.checkTables()
		if err == nil {
			t.Fatal("corrupt rename tables not detected")
		}
		if first == "" {
			first = err.Error()
			continue
		}
		if err.Error() != first {
			t.Fatalf("corruption error depends on iteration order:\n  run 0: %s\n  run %d: %s", first, i, err)
		}
	}
}
