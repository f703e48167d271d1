//go:build !race

// The allocation regression guards live behind !race because the race
// detector instruments allocations and would trip the bounds.

package ooosim

import (
	"runtime"
	"testing"

	"oovec/internal/refsim"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// allocsTrace is a mixed scalar/vector workload of 8000 instructions.
func allocsTrace() *tgen.Preset {
	p, _ := tgen.PresetByName("hydro2d")
	p.Insns = 8000
	return &p
}

// TestRunAllocationBound guards the zero-allocation hot path: a full
// OOOVA run over 8000 instructions must stay within a small constant
// allocation budget (machine construction plus the growth of the held
// bookings and stores) — i.e. no per-instruction allocations. The seed simulator spent
// roughly two allocations per instruction here.
func TestRunAllocationBound(t *testing.T) {
	tr := tgen.Generate(*allocsTrace())
	cfg := DefaultConfig()
	Run(tr, cfg) // record the trace's plan; warm up any lazy runtime state

	const bound = 400 // ~0.05 allocs/insn; the seed needed ~2/insn
	avg := testing.AllocsPerRun(5, func() {
		Run(tr, cfg)
	})
	if avg > bound {
		t.Errorf("ooosim.Run allocated %.0f times for %d insns, want <= %d",
			avg, tr.Len(), bound)
	}
}

// TestRefRunAllocationBound is the same guard for the reference simulator.
func TestRefRunAllocationBound(t *testing.T) {
	tr := tgen.Generate(*allocsTrace())
	cfg := refsim.DefaultConfig()
	refsim.Run(tr, cfg)

	const bound = 200
	avg := testing.AllocsPerRun(5, func() {
		refsim.Run(tr, cfg)
	})
	if avg > bound {
		t.Errorf("refsim.Run allocated %.0f times for %d insns, want <= %d",
			avg, tr.Len(), bound)
	}
}

// TestMachineReuseAllocationBound guards the Reset path: a reused machine
// must allocate almost nothing beyond the interval bookkeeping.
func TestMachineReuseAllocationBound(t *testing.T) {
	tr := tgen.Generate(*allocsTrace())
	cfg := DefaultConfig()
	mm := NewMachine(cfg)
	mm.Run(tr) // records the trace's plan, once per trace, not per run

	const bound = 300
	avg := testing.AllocsPerRun(5, func() {
		mm.Run(tr)
	})
	if avg > bound {
		t.Errorf("reused Machine.Run allocated %.0f times for %d insns, want <= %d",
			avg, tr.Len(), bound)
	}
}

// bytesPerRun measures the average heap bytes allocated per call of fn.
// TotalAlloc is cumulative (GC never decreases it), so the delta is exact
// for a single-goroutine measurement.
func bytesPerRun(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMachineReuseBytesBound guards the bytes/op of a repeated Run on one
// machine, the path the root benchmarks and perfbench time. A fresh-machine
// OOOVA run costs ~33 KB here (machine construction; the held bookings and
// stores are machine-sized); a reused machine must stay under a small
// constant so a per-run rebuild inside Run cannot silently return.
func TestMachineReuseBytesBound(t *testing.T) {
	tr := tgen.Generate(*allocsTrace())
	mm := NewMachine(DefaultConfig())
	mm.Run(tr) // reach steady state: the trace's plan + first-run growth

	const bound = 64 << 10 // 64 KiB; steady state measures ~1 KiB
	per := bytesPerRun(5, func() { mm.Run(tr) })
	if per > bound {
		t.Errorf("reused Machine.Run allocated %d B/run for %d insns, want <= %d",
			per, tr.Len(), bound)
	}
}

// TestRefMachineReuseBytesBound is the same guard for the reference
// simulator.
func TestRefMachineReuseBytesBound(t *testing.T) {
	tr := tgen.Generate(*allocsTrace())
	mm := refsim.NewMachine(refsim.DefaultConfig())
	mm.Run(tr)

	const bound = 64 << 10
	per := bytesPerRun(5, func() { mm.Run(tr) })
	if per > bound {
		t.Errorf("reused refsim Machine.Run allocated %d B/run for %d insns, want <= %d",
			per, tr.Len(), bound)
	}
}

// TestFreshRunBytesIndependentOfTraceLength guards the machine-sized state
// of both simulators: a fresh machine's run allocates the same bytes on a
// 10,000- and an 80,000-instruction trace, within a small constant. What
// the run allocates is the machine itself and the held bookings and stores,
// which are sized by the work in flight; a structure that kept every
// booking or store of the run would cost hundreds of kilobytes more at 80k.
// A first run records each trace's memory-dependence plan before the
// measured ones: a plan is trace-derived data, recorded once per trace and
// followed by every later run on it, like the trace itself
// (TestMemDepsBytes bounds it).
func TestFreshRunBytesIndependentOfTraceLength(t *testing.T) {
	const slack = 8 << 10
	for _, bench := range []string{"hydro2d", "swm256"} {
		p, _ := tgen.PresetByName(bench)
		p.Insns = 10_000
		short := tgen.Generate(p)
		p.Insns = 80_000
		long := tgen.Generate(p)
		Run(short, DefaultConfig())
		Run(long, DefaultConfig())
		runs := map[string]func(*trace.Trace){
			"OOOVA": func(tr *trace.Trace) { NewMachine(DefaultConfig()).Run(tr) },
			"REF":   func(tr *trace.Trace) { refsim.NewMachine(refsim.DefaultConfig()).Run(tr) },
		}
		for name, run := range runs {
			run(short) // warm up any lazy runtime state
			b10 := bytesPerRun(3, func() { run(short) })
			b80 := bytesPerRun(3, func() { run(long) })
			t.Logf("%s/%s: %d B/run at 10k instructions, %d at 80k", bench, name, b10, b80)
			if b80 > b10+slack {
				t.Errorf("%s/%s: a fresh machine's run allocated %d B at 10k instructions and %d at 80k, want within %d",
					bench, name, b10, b80, slack)
			}
		}
	}
}

// TestFreshRunBytesBound bounds the bytes one fresh machine's run
// allocates: the machine itself plus the held bookings and stores, which
// are sized by the work in flight. A default OOOVA measures ~32 KB, a
// 128-slot one ~42 KB and REF ~4.4 KB on these presets, so a structure
// that grows the machine (a longer calendar horizon, a per-run table) has
// to show here, where the 10k-versus-80k guard above would not see it.
// Each warm-up run records the trace's plan at its window first.
func TestFreshRunBytesBound(t *testing.T) {
	slots128 := DefaultConfig()
	slots128.QueueSlots = 128
	runs := []struct {
		name  string
		bound uint64
		run   func(*trace.Trace)
	}{
		{"OOOVA", 40 << 10, func(tr *trace.Trace) { NewMachine(DefaultConfig()).Run(tr) }},
		{"OOOVA-128", 64 << 10, func(tr *trace.Trace) { NewMachine(slots128).Run(tr) }},
		{"REF", 8 << 10, func(tr *trace.Trace) { refsim.NewMachine(refsim.DefaultConfig()).Run(tr) }},
	}
	for _, bench := range []string{"hydro2d", "swm256", "bdna"} {
		p, _ := tgen.PresetByName(bench)
		p.Insns = 10_000
		tr := tgen.Generate(p)
		for _, r := range runs {
			r.run(tr) // record the trace's plan; warm up any lazy runtime state
			per := bytesPerRun(3, func() { r.run(tr) })
			t.Logf("%s/%s: %d B/run", bench, r.name, per)
			if per > r.bound {
				t.Errorf("%s/%s: a fresh machine's run allocated %d B, want <= %d", bench, r.name, per, r.bound)
			}
		}
	}
}

// TestMemDepsBytes bounds what a trace's memory-dependence plan holds, the
// one trace-sized structure an OOOVA run reads besides the trace itself:
// the heap bytes the plans that one default run records on each of the
// ten presets keep, per memory instruction. An exact-size plan keeps a
// 4-byte offset and under one conflict byte per memory instruction; spare
// capacity left by append growth, or wider offsets or conflict entries,
// would keep more.
func TestMemDepsBytes(t *testing.T) {
	const bound = 6 // bytes per memory instruction
	var traces []*trace.Trace
	var mem int64
	for _, p := range tgen.Presets() {
		p.Insns = tgen.DefaultInsns
		tr := tgen.Generate(p)
		mem += int64(memInsns(tr.Insns))
		traces = append(traces, tr)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, tr := range traces {
		Run(tr, DefaultConfig())
		if recordedPlan(tr) == nil {
			t.Fatalf("%s: the run recorded no plan", tr.Name)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(mem)
	t.Logf("plans of the ten presets: %.2f B kept per memory instruction (%d of them)", kept, mem)
	if kept > bound {
		t.Errorf("the presets' plans keep %.2f B per memory instruction, want <= %d", kept, bound)
	}
	runtime.KeepAlive(traces)
}
