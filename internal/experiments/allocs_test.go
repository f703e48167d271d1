//go:build !race

// The allocation regression guards live behind !race because the race
// detector instruments allocations and would trip the bounds.

package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestPooledSuiteBytesBudget guards the bytes/op of a pooled suite run:
// the Fig5 grid drives 100 OOOVA and 10 REF simulations (10 benchmarks ×
// 5 register counts × 2 queue depths) through machines checked out of the
// process-wide pools (ooosim.Machines, refsim.Machines). Those machines
// outlive the suite, so a suite after the first builds none, and the
// per-simulation average is mostly the runs' own results (~6 KB). GC is
// off so the pools keep what the first suite put back, and one P keeps
// every Get on the P its Put went to.
func TestPooledSuiteBytesBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const insns = 2000
	const sims = 110 // OOOVA grid points + REF baselines in Fig5

	run := func() {
		s := NewSuite(Opts{Insns: insns, Parallelism: 1})
		if res := Fig5(s); len(res.Names) == 0 {
			t.Fatal("empty result")
		}
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // warm any lazy runtime state and fill the pools

	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perSuite := (after.TotalAlloc - before.TotalAlloc) / runs
	perSim := perSuite / sims
	t.Logf("pooled Fig5 suite: %d B per simulation", perSim)

	// A fresh machine per simulation costs ~32 KB for the OOOVA's default
	// shape (its construction: the held bookings and stores are
	// machine-sized) and ~4 KB for REF, on top of the result, so the budget
	// fails a suite that does not reuse pooled machines.
	const budget = 16 << 10 // 16 KiB per simulation
	if perSim > budget {
		t.Errorf("pooled suite run allocated %d B per simulation (%d B per suite), want <= %d",
			perSim, perSuite, budget)
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
