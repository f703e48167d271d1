package oovec

// TestEmitBench writes a machine-readable performance snapshot (BENCH_9.json)
// for CI to archive: ns/op, allocs/op and B/op of the OOOVA and REF
// simulators on a fixed trace, the cold-vs-warm latency of a small sweep
// grid through the content-addressed result cache, a service-level load
// section (a seeded burst schedule driven cold and warm against an
// in-process ovserve by the ovload harness), and — on multicore runners —
// the serial-vs-parallel experiment-suite speedup. Gated on the BENCH_OUT
// environment variable so ordinary `go test ./...` runs skip it:
//
//	BENCH_OUT=BENCH_9.json go test -run TestEmitBench .
//
// CI diffs each snapshot against the previous run's via `ovload -compare`
// and fails on >20% regressions in the tracked fields (simulator ns/op,
// load p99) — the perf trajectory is owned by the pipeline, not by whoever
// remembers to run benchmarks.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"oovec/internal/experiments"
	"oovec/internal/load"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/server"
	"oovec/internal/simcache"
	"oovec/internal/sweep"
	"oovec/internal/tgen"
)

// benchRecord is one measured operation in the emitted snapshot.
type benchRecord struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// benchSweep is the cold/warm sweep comparison: the same grid served once
// by simulation and once from the result cache.
type benchSweep struct {
	Points int     `json:"points"`
	ColdMs float64 `json:"cold_ms"`
	WarmMs float64 `json:"warm_ms"`
}

// benchLoad is the service-level section: one seeded burst schedule driven
// twice against a fresh in-process ovserve — cold (every key simulates)
// and warm (every key cached).
type benchLoad struct {
	Requests int          `json:"requests"`
	Cold     *load.Report `json:"cold"`
	Warm     *load.Report `json:"warm"`
}

// benchParallel is the engine fan-out section, present only on multicore
// runners: the same Fig5+Fig9 workload timed serial and one-worker-per-core.
type benchParallel struct {
	Cores      int     `json:"cores"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// benchSnapshot is the BENCH_9.json schema. Load and Parallel are pointers
// so older snapshots (and single-core emits) stay comparable — the
// trajectory gate skips absent sections.
type benchSnapshot struct {
	Insns      int            `json:"insns"`
	Benchmarks []benchRecord  `json:"benchmarks"`
	Sweep      benchSweep     `json:"sweep"`
	Load       *benchLoad     `json:"load,omitempty"`
	Parallel   *benchParallel `json:"parallel,omitempty"`
}

// benchLoadSpec is the seeded schedule of the load section — small enough
// to finish in seconds, mixed enough to touch /v1/sim, /v1/sweep and
// /v1/jobs.
func benchLoadSpec() load.Spec {
	return load.Spec{
		Mode: load.ModeBurst, Seed: 42,
		Begin: 2, Target: 12, Step: 10, SlotMs: 1000,
		Bench: []string{"swm256", "hydro2d"},
		Regs:  []int{12, 16, 32}, Lats: []int64{1, 50},
		Insns: 2000, SweepPct: 20, JobPct: 20, RefPct: 25,
	}
}

// emitLoadSection boots an in-process ovserve and drives the seeded
// schedule cold and warm.
func emitLoadSection(t *testing.T) *benchLoad {
	t.Helper()
	s := server.New(server.Opts{Workers: 0, JobWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.JobsClose()
	}()

	sched, err := load.Synthesize(benchLoadSpec())
	if err != nil {
		t.Fatal(err)
	}
	run := func() *load.Report {
		rep, err := load.Drive(context.Background(), sched, load.DriveOpts{
			BaseURL: ts.URL, Client: ts.Client(),
			Loop: load.LoopClosed, Conns: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold := run()
	warm := run()
	if warm.Server != nil && warm.Server.Sims != 0 {
		t.Fatalf("warm replay in the bench emit caused %d sims, want 0", warm.Server.Sims)
	}
	return &benchLoad{Requests: len(sched.Reqs), Cold: cold, Warm: warm}
}

// emitParallelSection times the Fig5+Fig9 workload serial vs
// one-worker-per-core. Single-core runners (the dev container) skip it —
// the section is absent rather than misleading.
func emitParallelSection() *benchParallel {
	if runtime.GOMAXPROCS(0) <= 1 {
		return nil
	}
	serial, parallel := suiteSpeedup()
	return &benchParallel{
		Cores:      runtime.GOMAXPROCS(0),
		SerialMs:   float64(serial) / float64(time.Millisecond),
		ParallelMs: float64(parallel) / float64(time.Millisecond),
		Speedup:    float64(serial) / float64(parallel),
	}
}

// suiteSpeedup runs the BenchmarkSuiteSerial/BenchmarkSuiteParallel
// workload once each and returns the wall clocks.
func suiteSpeedup() (serial, parallel time.Duration) {
	run := func(parallelism int) time.Duration {
		start := time.Now()
		s := NewSuite(SuiteOpts{Insns: benchInsns, Parallelism: parallelism})
		if len(experiments.Fig5(s).Names) == 0 || len(experiments.Fig9(s).Names) == 0 {
			panic("empty suite result")
		}
		return time.Since(start)
	}
	return run(1), run(0)
}

func TestEmitBench(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("BENCH_OUT not set; set it to a path to emit the benchmark snapshot")
	}

	p, ok := tgen.PresetByName("swm256")
	if !ok {
		t.Fatal("no swm256 preset")
	}
	p.Insns = benchInsns
	tr := tgen.Generate(p)

	record := func(name string, r testing.BenchmarkResult) benchRecord {
		return benchRecord{
			Name:        name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	snap := benchSnapshot{Insns: benchInsns}

	// Steady-state simulator throughput: one machine run repeatedly, each
	// Run starting from power-on state. Production runs build a machine
	// per run; construction adds a fixed cost that does not grow with the
	// trace.
	oooM := ooosim.NewMachine(ooosim.DefaultConfig())
	snap.Benchmarks = append(snap.Benchmarks, record("ooova/swm256",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				oooM.Run(tr)
			}
		})))
	refM := refsim.NewMachine(refsim.DefaultConfig())
	snap.Benchmarks = append(snap.Benchmarks, record("ref/swm256",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refM.Run(tr)
			}
		})))

	// Cold vs warm sweep: identical grids, the second served entirely from
	// the result cache. The ratio is the headline the cache earns its keep
	// by; the snapshot records both absolute latencies.
	cache := simcache.NewResults(1024, nil)
	spec := sweep.Spec{Bench: []string{p.Name}, Regs: []int{12, 16, 32}, Lats: []int64{1, 50}, Insns: p.Insns}
	simcache.GenerateTrace(p) // keep trace generation out of the cold timing
	grid := func() int {
		n := 0
		err := sweep.Run(spec, sweep.Opts{Workers: 1, Cache: cache}, func(pts []sweep.Point) error {
			n += len(pts)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	start := time.Now()
	n := grid()
	cold := time.Since(start)
	start = time.Now()
	if n2 := grid(); n2 != n {
		t.Fatalf("warm grid returned %d points, cold %d", n2, n)
	}
	warm := time.Since(start)
	snap.Sweep = benchSweep{
		Points: n,
		ColdMs: float64(cold) / float64(time.Millisecond),
		WarmMs: float64(warm) / float64(time.Millisecond),
	}

	snap.Load = emitLoadSection(t)
	snap.Parallel = emitParallelSection()

	b, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// TestParallelSuiteSpeedup is the multicore gate: on a runner with
// GOMAXPROCS > 1 the one-worker-per-core suite must beat the serial suite
// by a real margin. The full ≥4x ROADMAP target needs ≥4 free cores and a
// quiet machine; the gate asserts a conservative floor and records the
// actual ratio in the log (and, via TestEmitBench, in the BENCH snapshot)
// so the trajectory is visible without being flaky.
//
// A wall-clock ratio only means something when nothing else competes for
// the cores, which plain `go test ./...` (packages testing in parallel)
// cannot promise. The floor is therefore asserted only with
// OOVEC_PARALLEL_GATE=1, set by the CI job that runs this test alone;
// otherwise the test runs both suites and only logs the ratio.
func TestParallelSuiteSpeedup(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	if cores <= 1 {
		t.Skipf("GOMAXPROCS=%d: parallel speedup needs a multicore runner", cores)
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	serial, parallel := suiteSpeedup()
	speedup := float64(serial) / float64(parallel)
	t.Logf("suite speedup on %d cores: serial %v, parallel %v, %.2fx", cores, serial, parallel, speedup)
	if os.Getenv("OOVEC_PARALLEL_GATE") != "1" {
		t.Log("OOVEC_PARALLEL_GATE unset: the 1.5x floor is not asserted")
		return
	}
	if speedup < 1.5 {
		t.Fatalf("parallel suite speedup %.2fx on %d cores, want >= 1.5x", speedup, cores)
	}
}
