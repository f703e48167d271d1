// Package experiments regenerates every table and figure of the paper's
// evaluation: Tables 1–3 and Figures 3–9, 11–13 (Figures 1, 2 and 10 are
// block diagrams — their content is the simulator structure itself).
//
// Each experiment has a driver returning a typed result with a Render
// method producing the paper-style text table. The drivers are used by
// cmd/ovbench, by the benchmark suite in the repository root, and by
// EXPERIMENTS.md generation.
//
// Every driver fans its independent (benchmark × configuration) simulations
// across a worker pool (package engine); Opts.Parallelism selects the worker
// count. Results are computed into index-addressed slots and assembled
// serially, so rendered output is byte-identical to a serial run for any
// worker count.
//
// Each pool worker owns a Worker carrying pooled, resettable simulator
// machines (ooosim.Machine, refsim.Machine) for the lifetime of one grid,
// so a driver's N simulations construct at most workers×shapes machines
// instead of N.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"oovec/internal/engine"
	"oovec/internal/isa"
	"oovec/internal/metrics"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/rob"
	"oovec/internal/simcache"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// Opts configures a Suite.
type Opts struct {
	// Insns overrides the per-benchmark dynamic instruction budget
	// (0 = tgen.DefaultInsns). Smaller values speed up sweeps.
	Insns int
	// Names restricts the benchmark set (nil = all ten).
	Names []string
	// Parallelism is the number of workers the drivers fan simulations
	// across: 0 selects one worker per core (GOMAXPROCS), 1 forces serial
	// execution. Output is byte-identical for every value.
	Parallelism int
	// Store, when non-nil, is the durable result store behind the suite's
	// run caches (ovbench -cache-dir): a run-cache miss probes the store
	// before simulating and publishes what it simulates. Entries use the
	// same simcache.ResultKey scheme as ovserve and ovsweep, so a suite
	// run warms CLI sweeps and the daemon — and a repeated ovbench across
	// process restarts re-simulates nothing.
	Store simcache.ResultStore
}

// Suite caches generated traces and reference runs across experiments.
// All methods are safe for concurrent use: each cache entry is generated
// exactly once (concurrent requesters block until it is ready) and traces
// are immutable once built. Traces live in the process-wide simcache, so
// every suite (and the ovserve daemon) sharing a (preset, insns) pair
// shares one generation.
type Suite struct {
	opts  Opts
	names []string

	mu   sync.Mutex
	runs map[runKey]*slot[*metrics.RunStats]

	// workers recycles Workers (and their pooled machines) for the
	// convenience methods Suite.Ref and Suite.OOO, which run outside a
	// grid's per-worker state.
	workers sync.Pool
}

// runKey identifies one simulation: the benchmark and the machine's
// simcache config key (simcache.OOOConfigKey / RefConfigKey), which renders
// the resolved configuration with the machine kind as its prefix.
type runKey struct {
	bench string
	cfg   string
}

// slot is a once-filled run-cache cell.
type slot[T any] struct {
	once sync.Once
	val  T
	// panicVal records a fill panic so every waiter re-raises the true
	// cause instead of observing a zero value.
	panicVal any
}

// runOnce executes fn under the slot's once, recording and re-raising any
// panic for both the first caller and every later waiter.
func (s *slot[T]) runOnce(fn func() T) T {
	s.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				s.panicVal = r
				panic(r)
			}
		}()
		s.val = fn()
	})
	if s.panicVal != nil {
		panic(s.panicVal)
	}
	return s.val
}

// NewSuite builds a suite over the selected benchmarks.
func NewSuite(opts Opts) *Suite {
	names := opts.Names
	if len(names) == 0 {
		names = tgen.Names()
	}
	return &Suite{
		opts:  opts,
		names: names,
		runs:  make(map[runKey]*slot[*metrics.RunStats]),
	}
}

// Names returns the benchmark names in Table 2 order.
func (s *Suite) Names() []string { return s.names }

// Workers returns the resolved worker count the suite fans out across.
func (s *Suite) Workers() int { return engine.Workers(s.opts.Parallelism) }

// Worker carries the pooled simulator machines one pool worker drives a
// grid's simulations with. Machines are built lazily on first use and reset
// between runs, so an N-point grid constructs machines once per (worker,
// shape) instead of once per point. A Worker is not safe for concurrent
// use; the engine gives each goroutine its own.
type Worker struct {
	s   *Suite
	ooo *ooosim.Machine
	ref *refsim.Machine
}

// NewWorker returns a worker bound to the suite's caches.
func (s *Suite) NewWorker() *Worker { return &Worker{s: s} }

// parallel runs fn(w, i) for i in [0, n) across the suite's workers, each
// owning pooled machines for the lifetime of the call. Workers come from
// the suite's recycling pool and return to it once the grid has drained,
// so consecutive drivers (a full ovbench run calls twelve) reuse machines
// instead of rebuilding them per grid.
func (s *Suite) parallel(n int, fn func(w *Worker, i int)) {
	var mu sync.Mutex
	var borrowed []*Worker
	engine.MapWith(s.opts.Parallelism, n, func() *Worker {
		w := s.borrowWorker()
		mu.Lock()
		borrowed = append(borrowed, w)
		mu.Unlock()
		return w
	}, fn)
	// MapWith has returned: no goroutine holds a worker any more.
	for _, w := range borrowed {
		s.returnWorker(w)
	}
}

// Trace returns (generating and caching) the trace for a benchmark.
func (w *Worker) Trace(name string) *trace.Trace { return w.s.Trace(name) }

// Ref returns (running and caching) the reference result at the given
// memory latency, simulating on the worker's pooled machine on a miss.
func (w *Worker) Ref(name string, latency int64) *metrics.RunStats {
	cfg := refsim.DefaultConfig()
	cfg.MemLatency = latency
	return w.cached(name, simcache.RefConfigKey(cfg), func() *metrics.RunStats {
		if w.ref == nil {
			w.ref = refsim.NewMachine(cfg)
		}
		w.ref.Reset(cfg)
		return w.ref.Run(w.Trace(name))
	})
}

// OOO returns (running and caching) the OOOVA result for a configuration,
// simulating on the worker's pooled machine on a miss. Configurations
// carrying a probe Sink are not cacheable and run directly.
func (w *Worker) OOO(name string, cfg ooosim.Config) *metrics.RunStats {
	run := func() *metrics.RunStats {
		if w.ooo == nil {
			w.ooo = ooosim.NewMachine(cfg)
		}
		w.ooo.Reset(cfg)
		return w.ooo.Run(w.Trace(name)).Stats
	}
	if cfg.Sink != nil {
		return run()
	}
	return w.cached(name, simcache.OOOConfigKey(cfg), run)
}

// cached returns the run cache's entry for (bench, cfgKey), filling it with
// run on a miss. The config key resolves defaults, so zero fields and
// explicit defaults share an entry. With Opts.Store set, a miss probes the
// durable store before simulating and publishes what it simulates; the
// slot's once guarantees a single filler per key in this process, so the
// store sees one writer. The store key is the scheme every other surface
// uses (simcache keys.go), which is what lets ovbench, ovsweep and ovserve
// warm each other's stores.
func (w *Worker) cached(bench, cfgKey string, run func() *metrics.RunStats) *metrics.RunStats {
	s := w.s
	key := runKey{bench, cfgKey}
	s.mu.Lock()
	sl, ok := s.runs[key]
	if !ok {
		sl = &slot[*metrics.RunStats]{}
		s.runs[key] = sl
	}
	s.mu.Unlock()
	return sl.runOnce(func() *metrics.RunStats {
		if s.opts.Store == nil {
			return run()
		}
		rk := simcache.ResultKey(cfgKey, simcache.PresetKey(s.preset(bench)))
		if st, ok := s.opts.Store.Load(context.Background(), rk); ok {
			return st
		}
		st := run()
		s.opts.Store.Save(context.Background(), rk, st)
		return st
	})
}

// borrowWorker takes a pooled worker for a one-off Suite.Ref / Suite.OOO
// call; returnWorker recycles it (and its machines).
func (s *Suite) borrowWorker() *Worker {
	if w, ok := s.workers.Get().(*Worker); ok {
		return w
	}
	return s.NewWorker()
}

func (s *Suite) returnWorker(w *Worker) { s.workers.Put(w) }

// Trace returns (generating and caching) the trace for a benchmark. The
// cache is the process-wide simcache trace cache: suites with the same
// instruction budget share one generation per benchmark, which removes the
// dominant allocation (~20 MB of a 33.6 MB full suite run) from every suite
// after the first.
func (s *Suite) Trace(name string) *trace.Trace {
	return simcache.GenerateTrace(s.preset(name))
}

// preset resolves a benchmark name to the preset this suite runs it at —
// also the trace's content key (simcache.PresetKey) for the result store.
func (s *Suite) preset(name string) tgen.Preset {
	p, ok := tgen.PresetByName(name)
	if !ok {
		panic("experiments: unknown benchmark " + name)
	}
	if s.opts.Insns > 0 {
		p.Insns = s.opts.Insns
	}
	return p
}

// Ref returns (running and caching) the reference machine result at the
// given memory latency, on a pooled worker borrowed for the call. Drivers
// inside a grid use Worker.Ref instead, keeping one worker per goroutine.
func (s *Suite) Ref(name string, latency int64) *metrics.RunStats {
	w := s.borrowWorker()
	defer s.returnWorker(w)
	return w.Ref(name, latency)
}

// OOO returns (running and caching) the OOOVA result for a configuration,
// on a pooled worker borrowed for the call. Several drivers revisit the
// same grid point — Fig5 and Fig9 share the early-commit register sweep,
// Fig11/Fig12 share their late-commit baselines — so identical simulations
// run exactly once per suite.
func (s *Suite) OOO(name string, cfg ooosim.Config) *metrics.RunStats {
	w := s.borrowWorker()
	defer s.returnWorker(w)
	return w.OOO(name, cfg)
}

// baseOOO returns the paper's headline OOOVA config at the given register
// count and latency.
func baseOOO(vregs int, latency int64) ooosim.Config {
	cfg := ooosim.DefaultConfig()
	cfg.PhysVRegs = vregs
	cfg.MemLatency = latency
	return cfg
}

// ---------------------------------------------------------------- Table 1

// Table1 renders the functional-unit latency table (a configuration table;
// it is verified by the isa package's tests rather than measured).
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: functional unit latencies (cycles)\n")
	fmt.Fprintf(&b, "%-24s %6s %6s\n", "", "REF", "OOOVA")
	fmt.Fprintf(&b, "%-24s %6d %6d\n", "read RF + crossbar", isa.ReadXbar(isa.MachineRef), isa.ReadXbar(isa.MachineOOO))
	fmt.Fprintf(&b, "%-24s %6d %6d\n", "write crossbar", isa.WriteXbar(isa.MachineRef), isa.WriteXbar(isa.MachineOOO))
	fmt.Fprintf(&b, "%-24s %6d %6d\n", "vector startup", isa.VectorStartup, isa.VectorStartup)
	rows := []struct {
		label string
		op    isa.Op
	}{
		{"add/logic/shift (scalar)", isa.OpSAdd},
		{"add/logic/shift (vector)", isa.OpVAdd},
		{"mul (scalar)", isa.OpSMul},
		{"mul (vector)", isa.OpVMul},
		{"div/sqrt (scalar)", isa.OpSDiv},
		{"div/sqrt (vector)", isa.OpVDiv},
	}
	for _, r := range rows {
		l := isa.ExecLatency(r.op)
		fmt.Fprintf(&b, "%-24s %6d %6d\n", r.label, l, l)
	}
	b.WriteString("memory latency: configurable (default 50; swept 1..100)\n")
	return b.String()
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one benchmark's operation counts.
type Table2Row struct {
	Name, Suite  string
	ScalarInsns  int64
	VectorInsns  int64
	VectorOps    int64
	PctVect      float64
	AvgVL        float64
	PaperScalarM float64
	PaperVectorM float64
	PaperAvgVL   int
}

// Table2Result holds the measured Table 2.
type Table2Result struct{ Rows []Table2Row }

// Table2 computes operation counts for every benchmark.
func Table2(s *Suite) *Table2Result {
	rows := make([]Table2Row, len(s.names))
	s.parallel(len(s.names), func(w *Worker, i int) {
		name := w.s.names[i]
		p, _ := tgen.PresetByName(name)
		st := w.Trace(name).ComputeStats()
		rows[i] = Table2Row{
			Name: name, Suite: p.Suite,
			ScalarInsns: st.ScalarInsns, VectorInsns: st.VectorInsns,
			VectorOps: st.VectorOps,
			PctVect:   st.PctVectorization(), AvgVL: st.AvgVL(),
			PaperScalarM: p.PaperScalarM, PaperVectorM: p.PaperVectorM,
			PaperAvgVL: p.AvgVL,
		}
	})
	return &Table2Result{Rows: rows}
}

// Render produces the paper-style table.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: basic operation counts (synthetic traces, ~2000x scaled; paper values in parens)\n")
	fmt.Fprintf(&b, "%-8s %-8s %10s %10s %10s %7s %6s %18s\n",
		"program", "suite", "#scalar", "#vector", "#vec ops", "%vect", "avgVL", "paper S/V (M)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %-8s %10d %10d %10d %7.1f %6.1f %9.1f/%-8.1f\n",
			row.Name, row.Suite, row.ScalarInsns, row.VectorInsns, row.VectorOps,
			row.PctVect, row.AvgVL, row.PaperScalarM, row.PaperVectorM)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one benchmark's spill traffic.
type Table3Row struct {
	Name                           string
	LoadOps, SpillLoadOps          int64
	StoreOps, SpillStoreOps        int64
	SpillTrafficPct, PaperSpillPct float64
}

// Table3Result holds the measured Table 3.
type Table3Result struct{ Rows []Table3Row }

// Table3 computes vector memory spill operations.
func Table3(s *Suite) *Table3Result {
	rows := make([]Table3Row, len(s.names))
	s.parallel(len(s.names), func(w *Worker, i int) {
		name := w.s.names[i]
		p, _ := tgen.PresetByName(name)
		st := w.Trace(name).ComputeStats()
		rows[i] = Table3Row{
			Name:    name,
			LoadOps: st.LoadOps, SpillLoadOps: st.SpillLoadOps,
			StoreOps: st.StoreOps, SpillStoreOps: st.SpillStoreOps,
			SpillTrafficPct: st.SpillTrafficPct(),
			PaperSpillPct:   p.SpillTrafficPct,
		}
	})
	return &Table3Result{Rows: rows}
}

// Render produces the paper-style table.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: memory spill operations (element counts)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %8s %8s\n",
		"program", "load", "spill-ld", "store", "spill-st", "spill%", "paper%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %10d %10d %10d %10d %8.1f %8.1f\n",
			row.Name, row.LoadOps, row.SpillLoadOps, row.StoreOps, row.SpillStoreOps,
			row.SpillTrafficPct, row.PaperSpillPct)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 3

// Fig3Latencies are the memory latencies of Figure 3.
var Fig3Latencies = []int64{1, 20, 70, 100}

// Fig3Result holds per-benchmark, per-latency execution-state breakdowns of
// the reference machine.
type Fig3Result struct {
	Names     []string
	Latencies []int64
	// Breakdown[name][latency] is the 8-state cycle breakdown.
	Breakdown map[string]map[int64]metrics.Breakdown
}

// Fig3 computes the reference machine's execution-state breakdown.
func Fig3(s *Suite) *Fig3Result {
	res := &Fig3Result{
		Names:     s.names,
		Latencies: Fig3Latencies,
		Breakdown: map[string]map[int64]metrics.Breakdown{},
	}
	nl := len(Fig3Latencies)
	cells := make([]metrics.Breakdown, len(s.names)*nl)
	s.parallel(len(cells), func(w *Worker, k int) {
		name, lat := w.s.names[k/nl], Fig3Latencies[k%nl]
		cells[k] = w.Ref(name, lat).States
	})
	for ni, name := range s.names {
		res.Breakdown[name] = map[int64]metrics.Breakdown{}
		for li, lat := range Fig3Latencies {
			res.Breakdown[name][lat] = cells[ni*nl+li]
		}
	}
	return res
}

// Render produces one stacked-bar-equivalent table per benchmark.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3: REF execution-state breakdown (kilocycles) vs memory latency\n")
	for _, name := range r.Names {
		fmt.Fprintf(&b, "\n%s:\n%-16s", name, "state \\ latency")
		for _, lat := range r.Latencies {
			fmt.Fprintf(&b, "%10d", lat)
		}
		b.WriteString("\n")
		for st := metrics.State(0); st < metrics.NumStates; st++ {
			fmt.Fprintf(&b, "%-16s", st)
			for _, lat := range r.Latencies {
				fmt.Fprintf(&b, "%10.1f", float64(r.Breakdown[name][lat][st])/1000)
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%-16s", "total")
		for _, lat := range r.Latencies {
			fmt.Fprintf(&b, "%10.1f", float64(r.Breakdown[name][lat].Total())/1000)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 4

// Fig4Result holds the REF memory-port idle percentages.
type Fig4Result struct {
	Names     []string
	Latencies []int64
	IdlePct   map[string]map[int64]float64
}

// Fig4 computes the percentage of cycles the memory port is idle on the
// reference machine for four latencies.
func Fig4(s *Suite) *Fig4Result {
	res := &Fig4Result{
		Names:     s.names,
		Latencies: Fig3Latencies,
		IdlePct:   map[string]map[int64]float64{},
	}
	nl := len(Fig3Latencies)
	cells := make([]float64, len(s.names)*nl)
	s.parallel(len(cells), func(w *Worker, k int) {
		name, lat := w.s.names[k/nl], Fig3Latencies[k%nl]
		cells[k] = w.Ref(name, lat).MemPortIdlePct()
	})
	for ni, name := range s.names {
		res.IdlePct[name] = map[int64]float64{}
		for li, lat := range Fig3Latencies {
			res.IdlePct[name][lat] = cells[ni*nl+li]
		}
	}
	return res
}

// Render produces the figure's table.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: % cycles the memory port is idle (REF)\n")
	fmt.Fprintf(&b, "%-8s", "program")
	for _, lat := range r.Latencies {
		fmt.Fprintf(&b, "  lat=%-4d", lat)
	}
	b.WriteString("\n")
	for _, name := range r.Names {
		fmt.Fprintf(&b, "%-8s", name)
		for _, lat := range r.Latencies {
			fmt.Fprintf(&b, "  %7.1f", r.IdlePct[name][lat])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 5

// Fig5Regs are the physical vector register counts swept in Figure 5.
var Fig5Regs = []int{9, 12, 16, 32, 64}

// Fig5Result holds OOOVA speedups over REF for register/queue sweeps.
type Fig5Result struct {
	Names []string
	Regs  []int
	// Speedup16 and Speedup128 index [name][#regs] for the 16- and
	// 128-slot queue configurations.
	Speedup16  map[string]map[int]float64
	Speedup128 map[string]map[int]float64
	Ideal      map[string]float64
}

// Fig5 computes the speedup of the OOOVA over the reference architecture
// for different numbers of vector physical registers (memory latency 50).
func Fig5(s *Suite) *Fig5Result {
	res := &Fig5Result{
		Names:      s.names,
		Regs:       Fig5Regs,
		Speedup16:  map[string]map[int]float64{},
		Speedup128: map[string]map[int]float64{},
		Ideal:      map[string]float64{},
	}
	nr := len(Fig5Regs)
	type cell struct{ s16, s128 float64 }
	cells := make([]cell, len(s.names)*nr)
	s.parallel(len(cells), func(w *Worker, k int) {
		name, regs := w.s.names[k/nr], Fig5Regs[k%nr]
		ref := w.Ref(name, 50)
		cfg := baseOOO(regs, 50)
		s16 := metrics.Speedup(ref, w.OOO(name, cfg))
		cfg.QueueSlots = 128
		s128 := metrics.Speedup(ref, w.OOO(name, cfg))
		cells[k] = cell{s16, s128}
	})
	for ni, name := range s.names {
		res.Speedup16[name] = map[int]float64{}
		res.Speedup128[name] = map[int]float64{}
		res.Ideal[name] = metrics.IdealSpeedup(s.Ref(name, 50).Cycles, s.Trace(name))
		for ri, regs := range Fig5Regs {
			res.Speedup16[name][regs] = cells[ni*nr+ri].s16
			res.Speedup128[name][regs] = cells[ni*nr+ri].s128
		}
	}
	return res
}

// Render produces the figure's table.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: OOOVA speedup over REF vs #physical vector registers (latency 50)\n")
	fmt.Fprintf(&b, "%-8s %-10s", "program", "queue")
	for _, regs := range r.Regs {
		fmt.Fprintf(&b, "  regs=%-3d", regs)
	}
	fmt.Fprintf(&b, "  %8s\n", "IDEAL")
	for _, name := range r.Names {
		fmt.Fprintf(&b, "%-8s %-10s", name, "OOOVA-16")
		for _, regs := range r.Regs {
			fmt.Fprintf(&b, "  %8.2f", r.Speedup16[name][regs])
		}
		fmt.Fprintf(&b, "  %8.2f\n", r.Ideal[name])
		fmt.Fprintf(&b, "%-8s %-10s", "", "OOOVA-128")
		for _, regs := range r.Regs {
			fmt.Fprintf(&b, "  %8.2f", r.Speedup128[name][regs])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Fig6Result compares memory-port idle percentages between REF and OOOVA.
type Fig6Result struct {
	Names   []string
	RefIdle map[string]float64
	OOOIdle map[string]float64
}

// Fig6 computes the idle percentages (16 physical registers, latency 50).
func Fig6(s *Suite) *Fig6Result {
	res := &Fig6Result{Names: s.names,
		RefIdle: map[string]float64{}, OOOIdle: map[string]float64{}}
	type cell struct{ ref, ooo float64 }
	cells := make([]cell, len(s.names))
	s.parallel(len(cells), func(w *Worker, i int) {
		name := w.s.names[i]
		cells[i] = cell{
			w.Ref(name, 50).MemPortIdlePct(),
			w.OOO(name, baseOOO(16, 50)).MemPortIdlePct(),
		}
	})
	for i, name := range s.names {
		res.RefIdle[name] = cells[i].ref
		res.OOOIdle[name] = cells[i].ooo
	}
	return res
}

// Render produces the figure's table.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: % idle cycles of the memory port (latency 50, 16 physical vector registers)\n")
	fmt.Fprintf(&b, "%-8s %8s %8s\n", "program", "REF", "OOOVA")
	for _, name := range r.Names {
		fmt.Fprintf(&b, "%-8s %8.1f %8.1f\n", name, r.RefIdle[name], r.OOOIdle[name])
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 7

// Fig7Result compares execution-state breakdowns between REF and OOOVA.
type Fig7Result struct {
	Names []string
	Ref   map[string]metrics.Breakdown
	OOO   map[string]metrics.Breakdown
}

// Fig7 computes both machines' state breakdowns (16 regs, latency 50).
func Fig7(s *Suite) *Fig7Result {
	res := &Fig7Result{Names: s.names,
		Ref: map[string]metrics.Breakdown{}, OOO: map[string]metrics.Breakdown{}}
	type cell struct{ ref, ooo metrics.Breakdown }
	cells := make([]cell, len(s.names))
	s.parallel(len(cells), func(w *Worker, i int) {
		name := w.s.names[i]
		cells[i] = cell{
			w.Ref(name, 50).States,
			w.OOO(name, baseOOO(16, 50)).States,
		}
	})
	for i, name := range s.names {
		res.Ref[name] = cells[i].ref
		res.OOO[name] = cells[i].ooo
	}
	return res
}

// Render produces the figure's table.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: execution-cycle breakdown, REF vs OOOVA (kilocycles; 16 regs, latency 50)\n")
	for _, name := range r.Names {
		fmt.Fprintf(&b, "\n%s:\n%-16s %10s %10s\n", name, "state", "REF", "OOOVA")
		for st := metrics.State(0); st < metrics.NumStates; st++ {
			fmt.Fprintf(&b, "%-16s %10.1f %10.1f\n", st,
				float64(r.Ref[name][st])/1000, float64(r.OOO[name][st])/1000)
		}
		fmt.Fprintf(&b, "%-16s %10.1f %10.1f\n", "total",
			float64(r.Ref[name].Total())/1000, float64(r.OOO[name].Total())/1000)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 8

// Fig8Latencies are the latencies of Figure 8.
var Fig8Latencies = []int64{1, 50, 100}

// Fig8Result holds execution times across memory latencies.
type Fig8Result struct {
	Names     []string
	Latencies []int64
	RefCycles map[string]map[int64]int64
	OOOCycles map[string]map[int64]int64
	Ideal     map[string]int64
}

// Fig8 computes execution time vs memory latency for REF and OOOVA-16,
// plus the latency-independent IDEAL bound.
func Fig8(s *Suite) *Fig8Result {
	res := &Fig8Result{
		Names: s.names, Latencies: Fig8Latencies,
		RefCycles: map[string]map[int64]int64{},
		OOOCycles: map[string]map[int64]int64{},
		Ideal:     map[string]int64{},
	}
	nl := len(Fig8Latencies)
	type cell struct{ ref, ooo int64 }
	cells := make([]cell, len(s.names)*nl)
	s.parallel(len(cells), func(w *Worker, k int) {
		name, lat := w.s.names[k/nl], Fig8Latencies[k%nl]
		cells[k] = cell{
			w.Ref(name, lat).Cycles,
			w.OOO(name, baseOOO(16, lat)).Cycles,
		}
	})
	for ni, name := range s.names {
		res.RefCycles[name] = map[int64]int64{}
		res.OOOCycles[name] = map[int64]int64{}
		res.Ideal[name] = metrics.IdealCycles(s.Trace(name))
		for li, lat := range Fig8Latencies {
			res.RefCycles[name][lat] = cells[ni*nl+li].ref
			res.OOOCycles[name][lat] = cells[ni*nl+li].ooo
		}
	}
	return res
}

// Degradation returns the OOOVA's execution-time growth from latency 1 to
// latency 100 for a benchmark (the §4.3 tolerance metric).
func (r *Fig8Result) Degradation(name string) float64 {
	c1 := r.OOOCycles[name][1]
	c100 := r.OOOCycles[name][100]
	if c1 == 0 {
		return 0
	}
	return float64(c100-c1) / float64(c1)
}

// Render produces the figure's table.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: execution time (kilocycles) vs main-memory latency (16 physical vector registers)\n")
	fmt.Fprintf(&b, "%-8s %-8s", "program", "machine")
	for _, lat := range r.Latencies {
		fmt.Fprintf(&b, "  lat=%-6d", lat)
	}
	b.WriteString("\n")
	for _, name := range r.Names {
		fmt.Fprintf(&b, "%-8s %-8s", name, "REF")
		for _, lat := range r.Latencies {
			fmt.Fprintf(&b, "  %9.1f", float64(r.RefCycles[name][lat])/1000)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-8s %-8s", "", "OOOVA")
		for _, lat := range r.Latencies {
			fmt.Fprintf(&b, "  %9.1f", float64(r.OOOCycles[name][lat])/1000)
		}
		fmt.Fprintf(&b, "   (1->100: +%.1f%%)\n", 100*r.Degradation(name))
		fmt.Fprintf(&b, "%-8s %-8s  %9.1f\n", "", "IDEAL", float64(r.Ideal[name])/1000)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 9

// Fig9Result compares early- vs late-commit speedups over REF.
type Fig9Result struct {
	Names []string
	Regs  []int
	Early map[string]map[int]float64
	Late  map[string]map[int]float64
	Ideal map[string]float64
}

// Fig9 computes the commit-model comparison (latency 50).
func Fig9(s *Suite) *Fig9Result {
	res := &Fig9Result{
		Names: s.names, Regs: Fig5Regs,
		Early: map[string]map[int]float64{},
		Late:  map[string]map[int]float64{},
		Ideal: map[string]float64{},
	}
	nr := len(Fig5Regs)
	type cell struct{ early, late float64 }
	cells := make([]cell, len(s.names)*nr)
	s.parallel(len(cells), func(w *Worker, k int) {
		name, regs := w.s.names[k/nr], Fig5Regs[k%nr]
		ref := w.Ref(name, 50)
		cfg := baseOOO(regs, 50)
		early := metrics.Speedup(ref, w.OOO(name, cfg))
		cfg.Commit = rob.PolicyLate
		late := metrics.Speedup(ref, w.OOO(name, cfg))
		cells[k] = cell{early, late}
	})
	for ni, name := range s.names {
		res.Early[name] = map[int]float64{}
		res.Late[name] = map[int]float64{}
		res.Ideal[name] = metrics.IdealSpeedup(s.Ref(name, 50).Cycles, s.Trace(name))
		for ri, regs := range Fig5Regs {
			res.Early[name][regs] = cells[ni*nr+ri].early
			res.Late[name][regs] = cells[ni*nr+ri].late
		}
	}
	return res
}

// Degradation16 returns the early→late performance degradation at 16
// registers (the §5 cost of precise traps).
func (r *Fig9Result) Degradation16(name string) float64 {
	e := r.Early[name][16]
	l := r.Late[name][16]
	if l == 0 {
		return 0
	}
	return e/l - 1
}

// Render produces the figure's table.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9: OOOVA speedup over REF, early vs late commit (latency 50)\n")
	fmt.Fprintf(&b, "%-8s %-6s", "program", "model")
	for _, regs := range r.Regs {
		fmt.Fprintf(&b, "  regs=%-3d", regs)
	}
	fmt.Fprintf(&b, "  %8s\n", "IDEAL")
	for _, name := range r.Names {
		fmt.Fprintf(&b, "%-8s %-6s", name, "early")
		for _, regs := range r.Regs {
			fmt.Fprintf(&b, "  %8.2f", r.Early[name][regs])
		}
		fmt.Fprintf(&b, "  %8.2f\n", r.Ideal[name])
		fmt.Fprintf(&b, "%-8s %-6s", "", "late")
		for _, regs := range r.Regs {
			fmt.Fprintf(&b, "  %8.2f", r.Late[name][regs])
		}
		fmt.Fprintf(&b, "   (cost at 16 regs: %.1f%%)\n", 100*r.Degradation16(name))
	}
	return b.String()
}

// -------------------------------------------------------- Figures 11 & 12

// ElimRegs are the register counts swept in Figures 11 and 12.
var ElimRegs = []int{16, 32, 64}

// ElimResult holds load-elimination speedups over the late-commit OOOVA.
type ElimResult struct {
	Mode  ooosim.ElimMode
	Names []string
	Regs  []int
	// Speedup[name][regs] over the same-regs late-commit baseline.
	Speedup map[string]map[int]float64
	// EliminatedLoads[name][regs] counts dynamically removed loads.
	EliminatedLoads map[string]map[int]int64
}

// elim computes Figure 11 (SLE) or Figure 12 (SLE+VLE): the speedup of the
// load-eliminating OOOVA over the baseline late-commit OOOVA. (§6.3: "As a
// baseline we use the late commit OOOVA described above, without dynamic
// load elimination.")
func elim(s *Suite, mode ooosim.ElimMode) *ElimResult {
	res := &ElimResult{
		Mode: mode, Names: s.names, Regs: ElimRegs,
		Speedup:         map[string]map[int]float64{},
		EliminatedLoads: map[string]map[int]int64{},
	}
	nr := len(ElimRegs)
	type cell struct {
		speedup float64
		elim    int64
	}
	cells := make([]cell, len(s.names)*nr)
	s.parallel(len(cells), func(w *Worker, k int) {
		name, regs := w.s.names[k/nr], ElimRegs[k%nr]
		base := baseOOO(regs, 50)
		base.Commit = rob.PolicyLate
		baseRun := w.OOO(name, base)
		cfg := base
		cfg.LoadElim = mode
		run := w.OOO(name, cfg)
		cells[k] = cell{metrics.Speedup(baseRun, run), run.EliminatedLoads}
	})
	for ni, name := range s.names {
		res.Speedup[name] = map[int]float64{}
		res.EliminatedLoads[name] = map[int]int64{}
		for ri, regs := range ElimRegs {
			res.Speedup[name][regs] = cells[ni*nr+ri].speedup
			res.EliminatedLoads[name][regs] = cells[ni*nr+ri].elim
		}
	}
	return res
}

// Fig11 computes the scalar-only load elimination (SLE) speedups.
func Fig11(s *Suite) *ElimResult { return elim(s, ooosim.ElimSLE) }

// Fig12 computes the scalar+vector load elimination (SLE+VLE) speedups.
func Fig12(s *Suite) *ElimResult { return elim(s, ooosim.ElimSLEVLE) }

// Render produces the figure's table.
func (r *ElimResult) Render() string {
	fig := "Figure 11 (SLE)"
	if r.Mode == ooosim.ElimSLEVLE {
		fig = "Figure 12 (SLE+VLE)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: speedup over the late-commit OOOVA\n", fig)
	fmt.Fprintf(&b, "%-8s", "program")
	for _, regs := range r.Regs {
		fmt.Fprintf(&b, "  regs=%-3d (elim)", regs)
	}
	b.WriteString("\n")
	for _, name := range r.Names {
		fmt.Fprintf(&b, "%-8s", name)
		for _, regs := range r.Regs {
			fmt.Fprintf(&b, "  %8.3f %6d", r.Speedup[name][regs], r.EliminatedLoads[name][regs])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 13

// Fig13Result holds traffic-reduction ratios at 32 physical registers.
type Fig13Result struct {
	Names []string
	// SLE and SLEVLE map name -> baseline requests / configuration requests.
	SLE    map[string]float64
	SLEVLE map[string]float64
}

// Fig13 computes the total address-bus traffic reduction of the two
// load-elimination configurations (32 physical vector registers).
func Fig13(s *Suite) *Fig13Result {
	res := &Fig13Result{Names: s.names,
		SLE: map[string]float64{}, SLEVLE: map[string]float64{}}
	type cell struct{ sle, slevle float64 }
	cells := make([]cell, len(s.names))
	s.parallel(len(cells), func(w *Worker, i int) {
		name := w.s.names[i]
		base := baseOOO(32, 50)
		base.Commit = rob.PolicyLate
		baseRun := w.OOO(name, base)
		cfg := base
		cfg.LoadElim = ooosim.ElimSLE
		sle := metrics.TrafficReduction(baseRun, w.OOO(name, cfg))
		cfg.LoadElim = ooosim.ElimSLEVLE
		slevle := metrics.TrafficReduction(baseRun, w.OOO(name, cfg))
		cells[i] = cell{sle, slevle}
	})
	for i, name := range s.names {
		res.SLE[name] = cells[i].sle
		res.SLEVLE[name] = cells[i].slevle
	}
	return res
}

// Render produces the figure's table.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 13: traffic reduction (baseline requests / configuration requests; 32 physical vector registers)\n")
	fmt.Fprintf(&b, "%-8s %8s %8s\n", "program", "SLE", "SLE+VLE")
	for _, name := range r.Names {
		fmt.Fprintf(&b, "%-8s %8.3f %8.3f\n", name, r.SLE[name], r.SLEVLE[name])
	}
	return b.String()
}

// ---------------------------------------------------------------- registry

// Experiment names accepted by Run.
var AllExperiments = []string{
	"table1", "table2", "table3",
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig11", "fig12", "fig13",
}

// Run executes one experiment by name and returns its rendered output.
func Run(s *Suite, name string) (string, error) {
	switch strings.ToLower(name) {
	case "table1":
		return Table1(), nil
	case "table2":
		return Table2(s).Render(), nil
	case "table3":
		return Table3(s).Render(), nil
	case "fig3":
		return Fig3(s).Render(), nil
	case "fig4":
		return Fig4(s).Render(), nil
	case "fig5":
		return Fig5(s).Render(), nil
	case "fig6":
		return Fig6(s).Render(), nil
	case "fig7":
		return Fig7(s).Render(), nil
	case "fig8":
		return Fig8(s).Render(), nil
	case "fig9":
		return Fig9(s).Render(), nil
	case "fig11":
		return Fig11(s).Render(), nil
	case "fig12":
		return Fig12(s).Render(), nil
	case "fig13":
		return Fig13(s).Render(), nil
	}
	sorted := append([]string(nil), AllExperiments...)
	sort.Strings(sorted)
	return "", fmt.Errorf("experiments: unknown experiment %q (have: %s)",
		name, strings.Join(sorted, ", "))
}
