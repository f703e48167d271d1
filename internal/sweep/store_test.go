package sweep

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"oovec/internal/ooosim"
	"oovec/internal/simcache"
	"oovec/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestInterruptedSweepWarmsNextRun is the ovsweep SIGINT contract: a grid
// cancelled partway through still persists its completed points (the CLI
// closes the store before exiting), so re-running the same sweep in a
// fresh process simulates only what the interrupt cut off.
func TestInterruptedSweepWarmsNextRun(t *testing.T) {
	dir := t.TempDir()
	tr, key := cachedTestTrace(t)
	base := ooosim.DefaultConfig()
	regs := []int{12, 16}
	lats := []int64{1, 20}

	// First process: serial grid, SIGINT (context cancel) lands during the
	// second of four points — points 0 and 1 complete, 2 and 3 never run.
	st1 := openStore(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sims1 atomic.Int64
	o1 := Opts{
		Workers:  1,
		Cache:    simcache.NewResults(256, st1),
		TraceKey: key,
		Ctx:      ctx,
		OnSim: func() {
			if sims1.Add(1) == 2 {
				cancel()
			}
		},
	}
	pts, err := oooGrid(tr, base, regs, lats, o1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pts != nil {
		t.Fatal("interrupted grid returned points")
	}
	completed := sims1.Load()
	if completed != 2 {
		t.Fatalf("fixture completed %d points before the interrupt, want 2", completed)
	}
	// The exit path: flush completed rows' store writes before exiting.
	st1.Close()

	// Second process: same sweep, fresh memory tier, same -cache-dir. Only
	// the interrupted remainder simulates.
	st2 := openStore(t, dir)
	defer st2.Close()
	var sims2 atomic.Int64
	o2 := Opts{
		Workers:  1,
		Cache:    simcache.NewResults(256, st2),
		TraceKey: key,
		OnSim:    func() { sims2.Add(1) },
	}
	warm, err := oooGrid(tr, base, regs, lats, o2)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(regs) * len(lats))
	if got := sims2.Load(); got != total-completed {
		t.Errorf("re-run simulated %d points, want %d (the %d completed before SIGINT must be disk hits)",
			got, total-completed, completed)
	}
	if hits := st2.Stats().Hits; hits != completed {
		t.Errorf("disk store served %d hits, want %d", hits, completed)
	}
	// And the warm grid is exactly what an uncached serial run produces.
	if want := mustGrid(oooGrid(tr, base, regs, lats, Opts{Workers: 1})); !reflect.DeepEqual(warm, want) {
		t.Error("disk-warmed grid differs from a fresh serial grid")
	}
}

// TestGridDiskWarmAcrossProcesses: a completed grid re-run through a fresh
// process (fresh memory tier, same store directory) runs zero simulations
// and produces identical points.
func TestGridDiskWarmAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	tr, key := cachedTestTrace(t)
	lats := []int64{1, 20}

	st1 := openStore(t, dir)
	var sims1 atomic.Int64
	cold, err := refGrid(tr, lats, Opts{
		Workers: 2, Cache: simcache.NewResults(256, st1), TraceKey: key,
		OnSim: func() { sims1.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sims1.Load() != int64(len(lats)) {
		t.Fatalf("cold grid ran %d sims, want %d", sims1.Load(), len(lats))
	}
	st1.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	var sims2 atomic.Int64
	warm, err := refGrid(tr, lats, Opts{
		Workers: 2, Cache: simcache.NewResults(256, st2), TraceKey: key,
		OnSim: func() { sims2.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sims2.Load(); got != 0 {
		t.Errorf("disk-warm grid ran %d sims, want 0", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("disk-warm grid points differ from the cold run")
	}
}
