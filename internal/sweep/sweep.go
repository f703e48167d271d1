// Package sweep runs parameter grids over the two simulators and exports
// the measurements as CSV — the raw-data complement to the paper-shaped
// tables of package experiments, intended for downstream plotting.
//
// Grid points are independent simulations; the grid runners fan them
// across a worker pool (package engine) while keeping the CSV row order —
// and therefore the output bytes — identical to a serial run. Each grid
// point builds its machine for its one run (refsim.Run, ooosim.Run) and
// drops it: machine state is fixed-size, so construction is cheap beside
// the run.
//
// Opts adds the two production concerns of a long-lived
// design-space-exploration service: per-point result caching (every grid
// point is content-addressed by the same simcache.ResultKey scheme the
// /v1/sim endpoint uses, so a repeated or overlapping grid re-simulates
// only the points never seen before) and cooperative cancellation between
// points (a dropped client stops burning workers mid-grid). Grid points are
// assembled from cached measurements deterministically, so a warm grid is
// byte-identical to a cold one.
package sweep

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"oovec/internal/engine"
	"oovec/internal/metrics"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/simcache"
	"oovec/internal/span"
	"oovec/internal/trace"
)

// Point is one measurement of one configuration on one program.
type Point struct {
	Program     string
	Machine     string // "REF" or "OOOVA"
	Latency     int64
	VRegs       int // 0 for REF
	QueueSlots  int // 0 for REF
	Commit      string
	Elim        string
	Cycles      int64
	MemRequests int64
	PortIdlePct float64
	Mispredicts int64
	Eliminated  int64
}

// Opts configures a cached, cancellable grid run. The zero value runs the
// grid uncached and uncancellable, fanned one worker per core (Workers 0).
type Opts struct {
	// Workers fans grid points across the engine pool (<= 0 picks one per
	// core, 1 runs serially).
	Workers int
	// Cache, when non-nil, serves repeated (configuration, trace) points
	// from the content-addressed result cache instead of re-simulating.
	// Entries are keyed by simcache.ResultKey over the resolved
	// configuration and TraceKey — the exact scheme the ovserve /v1/sim
	// endpoint uses, so single runs and sweep grid points share entries.
	// With a backing store (ovserve, ovsweep -cache-dir), points persisted
	// by an earlier process are disk hits that run no simulation.
	Cache *simcache.Results
	// TraceKey is the content key of the trace the grid runs on
	// (simcache.PresetKey for generated benchmarks, "ovtr:"+trace.Digest
	// for arbitrary traces). Required when Cache is set: without it,
	// different traces would collide on configuration-only keys.
	TraceKey string
	// Ctx, when non-nil, cancels the grid between points; the grid then
	// returns ctx's error and the partial points must be discarded.
	Ctx context.Context
	// OnSim, when non-nil, is called once per simulation actually executed
	// — cache hits do not fire it. Calls happen on worker goroutines, so
	// OnSim must be safe for concurrent use when Workers != 1.
	OnSim func()
}

// validate catches the cache-without-key programmer error before any point
// could poison the cache with trace-independent keys.
func (o Opts) validate() {
	if o.Cache != nil && o.TraceKey == "" {
		panic("sweep: Opts.Cache requires Opts.TraceKey (distinct traces would collide)")
	}
}

// startPoint opens a per-grid-point span when Opts.Ctx carries a parent
// span (an instrumented /v1/sweep request). Returns nil — and every later
// span call a no-op — for the CLI and untraced paths. Points run on worker
// goroutines; distinct spans of one trace are safe to record concurrently.
func (o Opts) startPoint(machine, key string) *span.Span {
	if o.Ctx == nil {
		return nil
	}
	sp, _ := span.Start(o.Ctx, "sweep.point")
	sp.SetAttr("machine", machine)
	if key != "" {
		sp.SetAttr("key", key)
	}
	return sp
}

// endPoint closes a grid-point span, recording whether the measurement was
// a cache hit or an actual simulation.
func endPoint(sp *span.Span, cached bool) {
	sp.SetAttr("cached", strconv.FormatBool(cached))
	sp.End()
}

// point produces one measurement: sim runs it on a machine built for the
// run, through the cache when configured (keyed by cfgKey, the machine's
// simcache config key), inside a grid-point span.
func (o Opts) point(machine, cfgKey string, sim func() *metrics.RunStats) *metrics.RunStats {
	run := func() *metrics.RunStats {
		if o.OnSim != nil {
			o.OnSim()
		}
		return sim()
	}
	if o.Cache == nil {
		sp := o.startPoint(machine, "")
		st := run()
		endPoint(sp, false)
		return st
	}
	key := simcache.ResultKey(cfgKey, o.TraceKey)
	sp := o.startPoint(machine, key)
	st, cached := o.Cache.Do(key, run)
	endPoint(sp, cached)
	return st
}

// grid fans n points across the worker pool and collects them in index
// order.
func grid(o Opts, n int, point func(i int) Point) ([]Point, error) {
	o.validate()
	pts := make([]Point, n)
	err := engine.MapCtx(o.Ctx, o.Workers, n, func(i int) { pts[i] = point(i) })
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// refGrid runs the reference machine across memory latencies under Opts:
// fanned across the worker pool, served from the result cache where
// configured, cancellable between points. The points come back in latency
// order for any worker count; on cancellation it returns the context's
// error and the points must be discarded.
func refGrid(t *trace.Trace, latencies []int64, o Opts) ([]Point, error) {
	return grid(o, len(latencies), func(i int) Point {
		cfg := refsim.DefaultConfig()
		cfg.MemLatency = latencies[i]
		st := o.point("REF", simcache.RefConfigKey(cfg), func() *metrics.RunStats {
			return refsim.Run(t, cfg)
		})
		return Point{
			Program: t.Name, Machine: "REF", Latency: latencies[i],
			Cycles: st.Cycles, MemRequests: st.MemRequests,
			PortIdlePct: st.MemPortIdlePct(),
		}
	})
}

// oooGrid runs the OOOVA over the cross product of register counts and
// latencies, with all other parameters taken from base, under Opts: fanned
// across the worker pool, served from the result cache where configured,
// cancellable between points. The points come back register-major for any
// worker count; on cancellation it returns the context's error and the
// points must be discarded.
func oooGrid(t *trace.Trace, base ooosim.Config, vregs []int, latencies []int64, o Opts) ([]Point, error) {
	nl := len(latencies)
	return grid(o, len(vregs)*nl, func(k int) Point {
		regs, lat := vregs[k/nl], latencies[k%nl]
		cfg := base
		cfg.PhysVRegs = regs
		cfg.MemLatency = lat
		st := o.point("OOOVA", simcache.OOOConfigKey(cfg), func() *metrics.RunStats {
			return ooosim.Run(t, cfg).Stats
		})
		// Report the exact parameters the simulator resolved, so CSV rows
		// cannot drift from what actually ran.
		resolved := cfg.WithDefaults()
		return Point{
			Program: t.Name, Machine: "OOOVA", Latency: lat,
			VRegs: regs, QueueSlots: resolved.QueueSlots,
			Commit: resolved.Commit.String(), Elim: resolved.LoadElim.String(),
			Cycles: st.Cycles, MemRequests: st.MemRequests,
			PortIdlePct: st.MemPortIdlePct(),
			Mispredicts: st.Mispredicts, Eliminated: st.EliminatedLoads,
		}
	})
}

// csvHeader is the column layout of WriteCSV.
var csvHeader = []string{
	"program", "machine", "latency", "vregs", "queue_slots", "commit",
	"elim", "cycles", "mem_requests", "port_idle_pct", "mispredicts",
	"eliminated_loads",
}

// WriteCSV writes the points with a header row.
func WriteCSV(w io.Writer, pts []Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, p := range pts {
		rec := []string{
			p.Program, p.Machine,
			fmt.Sprint(p.Latency), fmt.Sprint(p.VRegs), fmt.Sprint(p.QueueSlots),
			p.Commit, p.Elim,
			fmt.Sprint(p.Cycles), fmt.Sprint(p.MemRequests),
			fmt.Sprintf("%.2f", p.PortIdlePct),
			fmt.Sprint(p.Mispredicts), fmt.Sprint(p.Eliminated),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
