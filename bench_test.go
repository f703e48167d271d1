package oovec

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (Tables 1-3, Figures 3-9 and 11-13), each reporting its
// headline quantity as a custom metric, plus a benchmark for the paper's
// future-work spill-store elision and raw simulator-throughput benchmarks.
//
// Benchmarks run on reduced traces (benchInsns instructions per program) so
// `go test -bench=.` completes quickly; `cmd/ovbench` regenerates the
// full-scale tables.

import (
	"fmt"
	"testing"

	"oovec/internal/experiments"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/rob"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// benchInsns is the per-program trace size used by the table/figure
// benchmarks.
const benchInsns = 8000

func benchSuite() *Suite {
	return NewSuite(SuiteOpts{Insns: benchInsns})
}

func BenchmarkTable1Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2OperationCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Table2(s)
		var minVect float64 = 100
		for _, row := range res.Rows {
			if row.PctVect < minVect {
				minVect = row.PctVect
			}
		}
		b.ReportMetric(minVect, "min-%vect")
	}
}

func BenchmarkTable3SpillCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Table3(s)
		for _, row := range res.Rows {
			if row.Name == "bdna" {
				b.ReportMetric(row.SpillTrafficPct, "bdna-spill-%")
			}
		}
	}
}

func BenchmarkFig3StateBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSuite(SuiteOpts{Insns: benchInsns, Names: []string{"hydro2d", "dyfesm"}})
		res := experiments.Fig3(s)
		// Headline: fraction of fully-idle cycles at latency 100 (dyfesm).
		bd := res.Breakdown["dyfesm"][100]
		b.ReportMetric(100*float64(bd.Idle())/float64(bd.Total()), "dyfesm-idle-%")
	}
}

func BenchmarkFig4PortIdle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Fig4(s)
		var max float64
		for _, name := range res.Names {
			if v := res.IdlePct[name][70]; v > max {
				max = v
			}
		}
		b.ReportMetric(max, "max-idle-%-lat70")
	}
}

func BenchmarkFig5Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Fig5(s)
		lo, hi := 100.0, 0.0
		for _, name := range res.Names {
			v := res.Speedup16[name][16]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		b.ReportMetric(lo, "min-speedup-16regs")
		b.ReportMetric(hi, "max-speedup-16regs")
	}
}

func BenchmarkFig6PortIdleCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Fig6(s)
		under20 := 0
		for _, name := range res.Names {
			if res.OOOIdle[name] < 20 {
				under20++
			}
		}
		// Paper: "for all but two of the benchmarks, the memory port is
		// idle less than 20% of the time".
		b.ReportMetric(float64(under20), "programs-under-20%-idle")
	}
}

func BenchmarkFig7StateCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Fig7(s)
		var worst float64
		for _, name := range res.Names {
			frac := 100 * float64(res.OOO[name].Idle()) / float64(res.OOO[name].Total())
			if frac > worst {
				worst = frac
			}
		}
		b.ReportMetric(worst, "max-OOO-fullidle-%")
	}
}

func BenchmarkFig8LatencyTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Fig8(s)
		var worst float64
		for _, name := range res.Names {
			if d := res.Degradation(name); d > worst {
				worst = d
			}
		}
		b.ReportMetric(100*worst, "max-degr-%-lat1to100")
	}
}

func BenchmarkFig9CommitModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Fig9(s)
		b.ReportMetric(100*res.Degradation16("trfd"), "trfd-late-cost-%")
		b.ReportMetric(100*res.Degradation16("swm256"), "swm256-late-cost-%")
	}
}

func BenchmarkFig11SLE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Fig11(s)
		b.ReportMetric(res.Speedup["trfd"][32], "trfd-SLE-speedup")
	}
}

func BenchmarkFig12SLEVLE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Fig12(s)
		var sum float64
		for _, name := range res.Names {
			sum += res.Speedup[name][32]
		}
		b.ReportMetric(sum/float64(len(res.Names)), "mean-SLE+VLE-speedup-32regs")
	}
}

func BenchmarkFig13Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := experiments.Fig13(s)
		var sum float64
		for _, name := range res.Names {
			sum += 100 * (1 - 1/res.SLEVLE[name])
		}
		b.ReportMetric(sum/float64(len(res.Names)), "mean-traffic-cut-%")
	}
}

// ---------------------------------------------------------------- extensions

// spillTrace is the spill-heaviest benchmark (bdna: 69% spill traffic).
func spillTrace() *Trace {
	p, _ := tgen.PresetByName("bdna")
	p.Insns = benchInsns
	return tgen.Generate(p)
}

// BenchmarkExtensionSpillStoreElision measures the paper's §6 future-work
// idea ("relaxing compatibility could lead to removing some spill stores"):
// dead-spill-store elision on the spill-heaviest benchmark.
func BenchmarkExtensionSpillStoreElision(b *testing.B) {
	tr := spillTrace()
	for i := 0; i < b.N; i++ {
		base := ooosim.DefaultConfig()
		base.PhysVRegs = 32
		baseRun := ooosim.Run(tr, base).Stats
		cfg := base
		cfg.ElideDeadSpillStores = true
		run := ooosim.Run(tr, cfg).Stats
		b.ReportMetric(float64(run.ElidedStores), "elided-stores")
		b.ReportMetric(float64(baseRun.MemRequests)/float64(run.MemRequests), "traffic-reduction")
	}
}

// ---------------------------------------------------------------- engine

// suiteWork drives a representative slice of the experiment workload: two
// register-sweep figures (150 distinct OOOVA runs + 10 REF runs — Fig5 and
// Fig9 share their early-commit grid through the suite's run cache).
func suiteWork(b *testing.B, parallelism int) {
	for i := 0; i < b.N; i++ {
		s := NewSuite(SuiteOpts{Insns: benchInsns, Parallelism: parallelism})
		res := experiments.Fig5(s)
		res9 := experiments.Fig9(s)
		if len(res.Names) == 0 || len(res9.Names) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkSuiteSerial is the single-worker baseline for the experiment
// engine; compare with BenchmarkSuiteParallel for the fan-out speedup.
func BenchmarkSuiteSerial(b *testing.B) { suiteWork(b, 1) }

// BenchmarkSuiteParallel runs the same workload with one worker per core.
// Output is byte-identical to serial (see experiments.TestParallelOutputIdentical).
func BenchmarkSuiteParallel(b *testing.B) { suiteWork(b, 0) }

// ---------------------------------------------------------------- raw speed

func BenchmarkSimulatorRefThroughput(b *testing.B) {
	p, _ := tgen.PresetByName("hydro2d")
	p.Insns = 20000
	tr := tgen.Generate(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refsim.Run(tr, refsim.DefaultConfig())
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsns/s")
}

// reuseLengths are the trace lengths of the reused-machine benchmarks: a
// simulator whose cost is linear in trace length reports the same ns/insn
// at every size.
var reuseLengths = []int{10000, 20000, 40000, 80000}

// benchReuse runs one sub-benchmark per trace length; run simulates the
// hydro2d trace on a reused machine. It reports throughput and ns/insn.
func benchReuse(b *testing.B, run func(*trace.Trace)) {
	for _, n := range reuseLengths {
		b.Run(fmt.Sprintf("insns=%d", n), func(b *testing.B) {
			p, _ := tgen.PresetByName("hydro2d")
			p.Insns = n
			tr := tgen.Generate(p)
			run(tr) // reach steady state before measuring
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(tr)
			}
			insns := float64(tr.Len()) * float64(b.N)
			b.ReportMetric(insns/b.Elapsed().Seconds()/1e6, "Minsns/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/insns, "ns/insn")
		})
	}
}

// BenchmarkSimulatorRefReuse measures the steady-state throughput and
// bytes/op of a reused reference Machine; compare with
// BenchmarkSimulatorRefThroughput for the per-run construction cost.
func BenchmarkSimulatorRefReuse(b *testing.B) {
	m := refsim.NewMachine(refsim.DefaultConfig())
	benchReuse(b, func(tr *trace.Trace) { m.Run(tr) })
}

func BenchmarkSimulatorOOOThroughput(b *testing.B) {
	p, _ := tgen.PresetByName("hydro2d")
	p.Insns = 20000
	tr := tgen.Generate(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ooosim.Run(tr, ooosim.DefaultConfig())
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsns/s")
}

// BenchmarkSimulatorOOOReuse measures the steady-state throughput and
// bytes/op of one Machine run repeatedly; compare with
// BenchmarkSimulatorOOOThroughput for the per-run construction cost every
// production run pays.
func BenchmarkSimulatorOOOReuse(b *testing.B) {
	m := ooosim.NewMachine(ooosim.DefaultConfig())
	benchReuse(b, func(tr *trace.Trace) { m.Run(tr) })
}

// BenchmarkSimulatorOOO128Reuse is BenchmarkSimulatorOOOReuse for the
// OOOVA-128 configuration (128-slot issue queues, Figure 5), where the
// per-instruction occupancy sample covers eight times as many slots.
func BenchmarkSimulatorOOO128Reuse(b *testing.B) {
	cfg := ooosim.DefaultConfig()
	cfg.QueueSlots = 128
	m := ooosim.NewMachine(cfg)
	benchReuse(b, func(tr *trace.Trace) { m.Run(tr) })
}

// BenchmarkSimulatorOOOElimReuse is BenchmarkSimulatorOOOReuse for Figure
// 12's configuration (late commit, SLE+VLE, 64 physical vector registers),
// where every load probes the memory tags for an exact match and every
// store invalidates the tags its range overlaps.
func BenchmarkSimulatorOOOElimReuse(b *testing.B) {
	cfg := ooosim.DefaultConfig()
	cfg.Commit = rob.PolicyLate
	cfg.LoadElim = ooosim.ElimSLEVLE
	cfg.PhysVRegs = 64
	m := ooosim.NewMachine(cfg)
	benchReuse(b, func(tr *trace.Trace) { m.Run(tr) })
}

// BenchmarkOOOFreshTrace measures OOOVA runs on traces no run has seen:
// each op simulates every preset at the default length on a new
// trace.Trace over its instructions, once (runs=1: a trace simulated once,
// as ovsim or an uploaded /v1/sim trace is) or twice (runs=2: the first
// run records the M queue's plan, the second follows it).
func BenchmarkOOOFreshTrace(b *testing.B) {
	var traces []*trace.Trace
	for _, p := range tgen.Presets() {
		p.Insns = tgen.DefaultInsns
		traces = append(traces, tgen.Generate(p))
	}
	for _, runs := range []int{1, 2} {
		b.Run(fmt.Sprintf("runs=%d", runs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, tr := range traces {
					fresh := &trace.Trace{Name: tr.Name, Insns: tr.Insns}
					for range runs {
						ooosim.Run(fresh, ooosim.DefaultConfig())
					}
				}
			}
		})
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p, _ := tgen.PresetByName("swm256")
	p.Insns = 20000
	for i := 0; i < b.N; i++ {
		tgen.Generate(p)
	}
}
