package sweep

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"oovec/internal/metrics"
	"oovec/internal/ooosim"
	"oovec/internal/simcache"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

func cachedTestTrace(t *testing.T) (tr *trace.Trace, key string) {
	t.Helper()
	p, ok := tgen.PresetByName("swm256")
	if !ok {
		t.Fatal("missing preset")
	}
	p.Insns = 1500
	return tgen.Generate(p), simcache.PresetKey(p)
}

// TestGridCachedMatchesFresh: a cold cached grid must produce exactly the
// points of the uncached grids — caching changes cost, never values.
func TestGridCachedMatchesFresh(t *testing.T) {
	tr, key := cachedTestTrace(t)
	cache := simcache.NewResults(256, nil)
	o := Opts{Workers: 2, Cache: cache, TraceKey: key}

	base := ooosim.DefaultConfig()
	regs := []int{12, 16}
	lats := []int64{1, 20}

	gotRef, err := RefGridOpts(tr, lats, o)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustGrid(RefGridOpts(tr, lats, Opts{Workers: 1})); !reflect.DeepEqual(gotRef, want) {
		t.Errorf("cached REF grid differs from fresh:\ngot  %+v\nwant %+v", gotRef, want)
	}
	gotOOO, err := OOOGridOpts(tr, base, regs, lats, o)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustGrid(OOOGridOpts(tr, base, regs, lats, Opts{Workers: 1})); !reflect.DeepEqual(gotOOO, want) {
		t.Errorf("cached OOO grid differs from fresh:\ngot  %+v\nwant %+v", gotOOO, want)
	}
}

// TestGridWarmRunsZeroSims: repeating an identical grid against the same
// cache must execute zero new simulations and return identical points.
func TestGridWarmRunsZeroSims(t *testing.T) {
	tr, key := cachedTestTrace(t)
	cache := simcache.NewResults(256, nil)
	var sims atomic.Int64
	o := Opts{Workers: 2, Cache: cache, TraceKey: key, OnSim: func() { sims.Add(1) }}

	base := ooosim.DefaultConfig()
	regs := []int{12, 16}
	lats := []int64{1, 20}

	cold, err := OOOGridOpts(tr, base, regs, lats, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != int64(len(cold)) {
		t.Fatalf("cold grid ran %d sims, want %d", got, len(cold))
	}
	warm, err := OOOGridOpts(tr, base, regs, lats, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != int64(len(cold)) {
		t.Errorf("warm grid ran %d new sims, want 0", got-int64(len(cold)))
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm grid points differ from cold grid points")
	}
}

// TestGridOverlapSimulatesDelta: a superset grid over a warm cache only
// simulates the configurations it has never seen.
func TestGridOverlapSimulatesDelta(t *testing.T) {
	tr, key := cachedTestTrace(t)
	cache := simcache.NewResults(256, nil)
	var sims atomic.Int64
	o := Opts{Workers: 1, Cache: cache, TraceKey: key, OnSim: func() { sims.Add(1) }}

	base := ooosim.DefaultConfig()
	lats := []int64{1, 20}
	if _, err := OOOGridOpts(tr, base, []int{12}, lats, o); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 2 {
		t.Fatalf("first grid ran %d sims, want 2", got)
	}
	// Superset: {12,16} × {1,20}; only the two 16-register points are new.
	if _, err := OOOGridOpts(tr, base, []int{12, 16}, lats, o); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 4 {
		t.Errorf("superset grid ran %d total sims, want 4 (only the delta simulates)", got)
	}
}

// TestGridSharesSimKeys: a grid point and a standalone run of the same
// (configuration, trace) must land on one cache entry — the scheme that
// lets /v1/sim warm /v1/sweep and vice versa.
func TestGridSharesSimKeys(t *testing.T) {
	tr, key := cachedTestTrace(t)
	cache := simcache.NewResults(256, nil)
	var sims atomic.Int64
	o := Opts{Workers: 1, Cache: cache, TraceKey: key, OnSim: func() { sims.Add(1) }}

	base := ooosim.DefaultConfig()
	cfg := base
	cfg.PhysVRegs = 12
	cfg.MemLatency = 20
	// Pre-fill the cache the way a /v1/sim request would.
	cache.Do(simcache.ResultKey(simcache.OOOConfigKey(cfg), key), func() *metrics.RunStats {
		sims.Add(1)
		return ooosim.Run(tr, cfg).Stats
	})

	pts, err := OOOGridOpts(tr, base, []int{12}, []int64{1, 20}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if got := sims.Load(); got != 2 {
		t.Errorf("%d sims total, want 2 (the lat=20 point must reuse the single-run entry)", got)
	}
}

// TestGridCancellation: a cancelled context stops the grid between points
// and surfaces as an error.
func TestGridCancellation(t *testing.T) {
	tr, key := cachedTestTrace(t)
	cache := simcache.NewResults(256, nil)
	ctx, cancel := context.WithCancel(context.Background())
	var sims atomic.Int64
	o := Opts{
		Workers: 1, Cache: cache, TraceKey: key, Ctx: ctx,
		OnSim: func() {
			if sims.Add(1) == 1 {
				cancel()
			}
		},
	}
	base := ooosim.DefaultConfig()
	pts, err := OOOGridOpts(tr, base, []int{12, 16}, []int64{1, 20}, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pts != nil {
		t.Error("cancelled grid returned points; they must be discarded")
	}
	if got := sims.Load(); got != 1 {
		t.Errorf("%d sims ran after cancellation during the first, want 1", got)
	}
}

// TestGridCacheWithoutTraceKeyPanics: the collision-prone misuse must fail
// loudly, not corrupt results.
func TestGridCacheWithoutTraceKeyPanics(t *testing.T) {
	tr, _ := cachedTestTrace(t)
	defer func() {
		if recover() == nil {
			t.Error("Opts.Cache without TraceKey did not panic")
		}
	}()
	RefGridOpts(tr, []int64{1}, Opts{Cache: simcache.NewResults(8, nil)})
}
