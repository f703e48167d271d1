package simcache

import (
	"context"
	"strconv"
	"time"
	"unsafe"

	"oovec/internal/metrics"
	"oovec/internal/span"
)

// This file is the two-tier result cache: the sharded in-memory LRU in
// front of an optional durable backing store (internal/store implements
// it). The memory tier dies with the process; the backing tier is what
// makes a restarted ovserve — or a fresh ovsweep invocation pointed at the
// same -cache-dir — serve previously computed results with zero new
// simulations.

// ResultStore is the durable tier behind a Results cache. internal/store
// provides the on-disk implementation; the interface lives here so simcache
// (and everything above it) never depends on the storage engine.
//
// Load returns the persisted result for a key, or false on a miss — and a
// miss is the only failure mode: a corrupt or unreadable entry must degrade
// to (nil, false), never an error or a wrong result. Save persists a result
// best-effort and may be asynchronous; implementations must tolerate
// concurrent Saves of the same key (results are content-addressed, so such
// saves carry identical measurements). Both must be safe for concurrent
// use. The context carries request-scoped observability (the active trace
// span) only — implementations must not let it cancel or fail a store
// operation, since a stored result must never depend on the fate of the
// request that happened to compute it.
type ResultStore interface {
	Load(ctx context.Context, key string) (*metrics.RunStats, bool)
	Save(ctx context.Context, key string, st *metrics.RunStats)
}

// Tier identifies where a Results.Do call was resolved: the in-memory LRU,
// the durable disk store, or an actual simulation. The String forms are the
// label values of the ovserve per-tier latency histograms.
type Tier uint8

const (
	TierMemory Tier = iota
	TierDisk
	TierSim
	NumTiers = 3
)

func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	default:
		return "simulate"
	}
}

// Results is the two-tier simulation result cache: memory miss → disk
// probe → simulate. The memory tier's singleflight covers the disk tier
// too, so for any key at most one goroutine probes the store or runs the
// fill — exactly one writer per key. Construct with NewResults.
type Results struct {
	mem  *Cache[*metrics.RunStats]
	disk ResultStore // nil = memory-only

	// observe, when non-nil, receives each Do call's resolution tier and
	// wall-clock duration. Install with SetObserver before serving traffic;
	// the field is not synchronised for later replacement.
	observe func(context.Context, Tier, time.Duration)
}

// SetObserver installs fn to be called once per Do with the request
// context (carrying the active trace span, if any — exemplar attachment
// reads the trace id from it), the tier that resolved the request, and the
// wall time the call took (including any time spent coalesced behind
// another caller's fill). Call before the cache starts serving concurrent
// traffic; fn must be safe for concurrent use.
func (r *Results) SetObserver(fn func(context.Context, Tier, time.Duration)) { r.observe = fn }

// NewResults builds a two-tier result cache: a memory LRU bounded to
// roughly `entries` (<= 0 selects a small default) in front of disk, which
// may be nil for a memory-only cache (the pre-persistence behaviour).
func NewResults(entries int, disk ResultStore) *Results {
	return &Results{mem: NewSized(entries, runStatsBytes), disk: disk}
}

// runStatsBytes estimates the memory footprint of one cached result for
// Stats.Bytes: the struct itself plus its string payloads.
func runStatsBytes(st *metrics.RunStats) int {
	if st == nil {
		return 0
	}
	return int(unsafe.Sizeof(*st)) + len(st.Machine) + len(st.Program)
}

// Do is DoCtx without request context: spans are not emitted and the
// observer sees an untraced context. It exists for callers outside a
// request path: the experiments suite and sweep grids.
func (r *Results) Do(key string, fill func() *metrics.RunStats) (*metrics.RunStats, bool) {
	return r.DoCtx(context.Background(), key, func(context.Context) *metrics.RunStats { return fill() })
}

// DoCtx returns the result for key. The lookup order is memory, then the
// backing store, then fill (the actual simulation); the second return
// reports whether the value came from either cache tier — callers count a
// simulation exactly when it is false. A fill's result is published to
// both tiers. Concurrent calls for one key coalesce: the memory tier's
// singleflight guarantees a single disk probe or simulation, and therefore
// a single store write, per key.
//
// When ctx carries a trace span, the resolution is recorded as a
// "cache.resolve" span (attrs key, tier, and waited on coalesced calls),
// with a "cache.promote" child covering the attempt to promote the key
// from the durable tier (attr hit), a back-dated "singleflight.wait" child
// on coalesced calls, and whatever spans the store and fill emit beneath
// it. fill receives a context descending from ctx so simulation spans nest
// correctly. Tracing is observation-only: the cached value is identical
// traced or untraced.
func (r *Results) DoCtx(ctx context.Context, key string, fill func(context.Context) *metrics.RunStats) (*metrics.RunStats, bool) {
	sp, ctx := span.Start(ctx, "cache.resolve")
	sp.SetAttr("key", key)
	var start time.Time
	if r.observe != nil || sp != nil {
		start = time.Now()
	}
	diskHit := false
	st, memHit, waited := r.mem.DoFlight(key, func() *metrics.RunStats {
		if st, ok := r.promote(ctx, key); ok {
			diskHit = true
			return st
		}
		st := fill(ctx)
		if r.disk != nil {
			r.disk.Save(ctx, key, st)
		}
		return st
	})
	if waited {
		// The wait began (at the latest) when this call found the key in
		// flight; back-date the span to cover the coalesced block.
		wsp, _ := span.StartAt(ctx, "singleflight.wait", start)
		wsp.End()
		sp.SetAttr("waited", "true")
	}
	// diskHit is only written by the filling goroutine (memHit false), and
	// only read here when memHit is false — same goroutine, no race.
	tier := TierMemory
	switch {
	case !memHit && diskHit:
		tier = TierDisk
	case !memHit:
		tier = TierSim
	}
	sp.SetAttr("tier", tier.String())
	sp.End()
	if r.observe != nil {
		r.observe(ctx, tier, time.Since(start))
	}
	return st, memHit || diskHit
}

// promote probes the durable tier for key inside a "cache.promote" span
// (attr hit). It reports a miss without a store.
func (r *Results) promote(ctx context.Context, key string) (*metrics.RunStats, bool) {
	if r.disk == nil {
		return nil, false
	}
	sp, ctx := span.Start(ctx, "cache.promote")
	st, ok := r.disk.Load(ctx, key)
	sp.SetAttr("hit", strconv.FormatBool(ok))
	sp.End()
	return st, ok
}

// Lookup returns the result for key without ever filling: memory first,
// then the backing store, promoting a disk hit into memory. It is the read
// path of callers that must not simulate — the job API's status and
// already-computed checks, and warm-start Preload.
func (r *Results) Lookup(ctx context.Context, key string) (*metrics.RunStats, bool) {
	if st, ok := r.mem.Get(key); ok {
		return st, true
	}
	st, ok := r.promote(ctx, key)
	if ok {
		r.mem.Do(key, func() *metrics.RunStats { return st })
	}
	return st, ok
}

// Publish stores a result computed outside a fill (a checkpointed job run)
// in both tiers, without probing the store first. It reports whether this
// call published the value; false means the key was already resident or in
// flight, and the resident value stands.
func (r *Results) Publish(ctx context.Context, key string, st *metrics.RunStats) bool {
	_, hit := r.mem.Do(key, func() *metrics.RunStats {
		if r.disk != nil {
			r.disk.Save(ctx, key, st)
		}
		return st
	})
	return !hit
}

// Preload pulls the given keys from the backing store into the memory tier
// and returns how many loaded. It is the warm-start path: after a restart
// the memory tier is empty while the store holds everything the previous
// process computed, so pre-loading the most-recently-used keys (see
// store.RecentKeys) lets the first interactive requests hit memory instead
// of each paying a disk probe. Keys already resident or absent from the
// store are skipped; Preload never simulates.
func (r *Results) Preload(keys []string) int {
	loaded := 0
	for _, key := range keys {
		if _, ok := r.mem.Get(key); ok {
			continue
		}
		if _, ok := r.Lookup(context.Background(), key); ok {
			loaded++
		}
	}
	return loaded
}

// MemStats snapshots the memory tier's counters. The disk tier keeps its
// own stats (see internal/store).
func (r *Results) MemStats() Stats { return r.mem.Stats() }
