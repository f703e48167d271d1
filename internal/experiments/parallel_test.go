package experiments

import (
	"runtime"
	"testing"
)

// parallelInsns keeps the determinism sweep fast while still running every
// benchmark through both simulators.
const parallelInsns = 1500

// TestParallelOutputIdentical renders tables and figures with one worker
// and with one worker per core and asserts the output is byte-identical —
// the determinism contract of the parallel experiment engine.
func TestParallelOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Every parallelized driver: each has its own index math to cover.
	exps := []string{"table2", "table3", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig11", "fig12", "fig13"}

	serial := NewSuite(Opts{Insns: parallelInsns, Parallelism: 1})
	parallel := NewSuite(Opts{Insns: parallelInsns, Parallelism: runtime.GOMAXPROCS(0)})
	for _, exp := range exps {
		want, err := Run(serial, exp)
		if err != nil {
			t.Fatalf("serial %s: %v", exp, err)
		}
		got, err := Run(parallel, exp)
		if err != nil {
			t.Fatalf("parallel %s: %v", exp, err)
		}
		if got != want {
			t.Errorf("%s: parallel output differs from serial output\nserial:\n%s\nparallel:\n%s",
				exp, want, got)
		}
	}
}

// TestSuiteCachesAreConcurrencySafe hammers the trace and reference-run
// caches from the worker pool; run with -race this is the engine's
// synchronisation test.
func TestSuiteCachesAreConcurrencySafe(t *testing.T) {
	s := NewSuite(Opts{Insns: 800, Parallelism: 0})
	names := s.Names()
	s.parallel(4*len(names), func(k int) {
		name := names[k%len(names)]
		tr := s.Trace(name)
		if tr == nil || tr.Len() == 0 {
			t.Errorf("empty trace for %s", name)
		}
		st := s.Ref(name, 50)
		if st.Cycles <= 0 {
			t.Errorf("%s: non-positive cycles", name)
		}
	})
	// Every task for the same key must observe the same cached object.
	for _, name := range names {
		if s.Trace(name) != s.Trace(name) {
			t.Errorf("%s: trace cache returned different objects", name)
		}
		if s.Ref(name, 50) != s.Ref(name, 50) {
			t.Errorf("%s: ref cache returned different objects", name)
		}
	}
}

// TestWorkersResolution checks the -j semantics exposed through Opts.
func TestWorkersResolution(t *testing.T) {
	if got := NewSuite(Opts{Parallelism: 1}).Workers(); got != 1 {
		t.Errorf("Parallelism 1: Workers() = %d, want 1", got)
	}
	if got := NewSuite(Opts{}).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism 0: Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}
