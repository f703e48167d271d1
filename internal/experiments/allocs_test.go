//go:build !race

// The allocation regression guards live behind !race because the race
// detector instruments allocations and would trip the bounds.

package experiments

import (
	"runtime"
	"testing"
)

// TestSuiteBytesPerSimulationIndependentOfTraceLength guards the whole
// suite path against trace-sized state: the Fig5 grid drives 100 OOOVA and
// 10 REF simulations (10 benchmarks × 5 register counts × 2 queue depths),
// each on a machine built for the run, and the bytes it allocates per
// simulation must be the same at 2,000 and at 8,000 instructions within a
// small constant. A machine, result, cache entry or span that grew with
// the trace would cost kilobytes more per simulation at the longer length.
func TestSuiteBytesPerSimulationIndependentOfTraceLength(t *testing.T) {
	const sims = 110 // OOOVA grid points + REF baselines in Fig5
	const slack = 8 << 10

	perSim := func(insns int) uint64 {
		run := func() {
			s := NewSuite(Opts{Insns: insns, Parallelism: 1})
			if res := Fig5(s); len(res.Names) == 0 {
				t.Fatal("empty result")
			}
		}
		run() // generate the shared traces and warm any lazy runtime state

		const runs = 2
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs / sims
	}
	short, long := perSim(2000), perSim(8000)
	t.Logf("Fig5 suite: %d B per simulation at 2000 insns, %d B at 8000", short, long)
	if long > short+slack || short > long+slack {
		t.Errorf("Fig5 suite allocated %d B per simulation at 2000 insns and %d B at 8000, want within %d B of each other",
			short, long, slack)
	}
}

// TestCrossSuiteTraceCacheBytesBudget guards the cross-suite trace cache:
// with trace generation shared through simcache, a full-size Fig5 suite
// after the first allocates well below the 33.6 MB that the pre-cache
// implementation paid per run (~20 MB of which was per-suite trace
// regeneration).
func TestCrossSuiteTraceCacheBytesBudget(t *testing.T) {
	run := func() {
		// 8000 insns matches the setup of the measured 33.6 MB/run figure.
		s := NewSuite(Opts{Insns: 8000, Parallelism: 1})
		if res := Fig5(s); len(res.Names) == 0 {
			t.Fatal("empty result")
		}
	}
	run() // first run generates (or finds) the shared traces

	const runs = 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perSuite := (after.TotalAlloc - before.TotalAlloc) / runs

	// The pre-cache cost was 33.6 MB per suite; without per-suite trace
	// regeneration a warm run must stay clearly below it.
	t.Logf("warm Fig5 suite: %.1f MB per run", float64(perSuite)/(1<<20))
	const budget = 24 << 20
	if perSuite > budget {
		t.Errorf("warm Fig5 suite allocated %d B, want <= %d (pre-cache cost was ~33.6 MB)",
			perSuite, budget)
	}
}
