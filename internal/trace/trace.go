// Package trace holds dynamic instruction traces — the input format of both
// simulators — together with a builder API, a compact binary serialisation,
// and the per-program statistics the paper reports in Table 2.
//
// The paper's methodology is trace-driven: benchmark executables instrumented
// with the Dixie tool produced dynamic traces that were then fed to the
// reference and OOOVA simulators. This package is the Go equivalent of that
// trace format; package tgen plays the role of the instrumented benchmarks.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"

	"oovec/internal/iq"
	"oovec/internal/isa"
)

// Trace is a fully materialised dynamic instruction trace for one program.
type Trace struct {
	// Name identifies the program (e.g. "swm256").
	Name string
	// Suite identifies the benchmark suite (e.g. "Spec", "Perfect").
	Suite string
	// Insns is the dynamic instruction sequence in program order.
	Insns []isa.Instruction

	// deps memoizes MemDeps; asked is set by the first run from the
	// start (RunMemDeps).
	deps struct {
		asked atomic.Bool
		once  sync.Once
		plan  atomic.Pointer[iq.MemDeps]
	}
}

// MemDeps returns the M queue's memory-dependence plan of the trace
// (iq.MemDeps; nil for a trace too dense to plan), building it at the
// first call. Concurrent first calls build it once. Every OOOVA run on the
// trace from then on shares it, so it describes Insns as they were at
// that first call: a trace is not modified once it has been simulated.
func (t *Trace) MemDeps() *iq.MemDeps {
	t.deps.once.Do(func() { t.deps.plan.Store(iq.BuildMemDeps(t.MemInsns(t.Len()), t.memAccesses)) })
	return t.deps.plan.Load()
}

// RunMemDeps returns the plan an OOOVA run about to start on the trace
// follows. The trace's first run from the start goes without one: its M
// queue finds its conflicts through a range index. The second builds the
// plan (MemDeps), and every run after a plan is built follows it. On the
// presets, building costs what the index costs two or three runs, so a
// trace simulated once (one ovsim run, one /v1/sim on an uploaded trace)
// never pays for a plan, and a trace simulated many times (each config of
// a sweep) pays once. A resumed run continues one that started earlier: it follows a
// plan already built and builds none.
func (t *Trace) RunMemDeps(resumed bool) *iq.MemDeps {
	if d := t.deps.plan.Load(); d != nil || resumed {
		return d
	}
	if t.deps.asked.Load() || t.deps.asked.Swap(true) {
		return t.MemDeps()
	}
	return nil
}

// MemInsns returns the number of memory instructions among the first n:
// the M queue entries a run has recorded before instruction n.
func (t *Trace) MemInsns(n int) int {
	mem := 0
	for i := range t.Insns[:n] {
		if t.Insns[i].Op.ExecUnit() == isa.UnitMem {
			mem++
		}
	}
	return mem
}

// memAccesses yields the byte range and store flag of every memory
// instruction, in program order: the M queue's entries.
func (t *Trace) memAccesses(yield func(iq.Access) bool) {
	for i := range t.Insns {
		in := &t.Insns[i]
		if in.Op.ExecUnit() != isa.UnitMem {
			continue
		}
		start, end := in.MemRange()
		if !yield(iq.Access{Start: start, End: end, Store: in.Op.IsStore()}) {
			return
		}
	}
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Insns) }

// At returns a pointer to the i-th instruction.
func (t *Trace) At(i int) *isa.Instruction { return &t.Insns[i] }

// Validate checks every instruction and returns the first error found,
// annotated with its position.
func (t *Trace) Validate() error {
	for i := range t.Insns {
		if err := t.Insns[i].Validate(); err != nil {
			return fmt.Errorf("trace %q insn %d: %w", t.Name, i, err)
		}
	}
	return nil
}

// Stats are the per-program statistics of Table 2 (operation counts) plus the
// spill statistics of Table 3.
type Stats struct {
	// ScalarInsns is the number of scalar (non-vector) instructions,
	// including branches.
	ScalarInsns int64
	// VectorInsns is the number of vector instructions.
	VectorInsns int64
	// VectorOps is the number of element operations performed by vector
	// instructions (the sum of their vector lengths).
	VectorOps int64
	// VectorLoads / VectorStores count vector memory instructions.
	VectorLoads, VectorStores int64
	// SpillLoadOps / SpillStoreOps count element operations moved by memory
	// instructions marked as spill code (Table 3 "spill" columns).
	SpillLoadOps, SpillStoreOps int64
	// LoadOps / StoreOps count element operations moved by all memory
	// instructions (Table 3 "load"/"store" columns).
	LoadOps, StoreOps int64
	// Branches counts control-transfer instructions.
	Branches int64
}

// PctVectorization is column 6 of Table 2: vector element operations over
// total operations (scalar instructions + vector element operations).
func (s Stats) PctVectorization() float64 {
	den := float64(s.ScalarInsns) + float64(s.VectorOps)
	if den == 0 {
		return 0
	}
	return 100 * float64(s.VectorOps) / den
}

// AvgVL is column 7 of Table 2: average vector length of vector instructions.
func (s Stats) AvgVL() float64 {
	if s.VectorInsns == 0 {
		return 0
	}
	return float64(s.VectorOps) / float64(s.VectorInsns)
}

// SpillTrafficPct returns the fraction (in percent) of memory element traffic
// that is spill traffic, the headline statistic of Table 3 ("over 69% of the
// memory traffic in bdna is due to spills").
func (s Stats) SpillTrafficPct() float64 {
	den := float64(s.LoadOps + s.StoreOps)
	if den == 0 {
		return 0
	}
	return 100 * float64(s.SpillLoadOps+s.SpillStoreOps) / den
}

// ComputeStats scans the trace and returns its statistics.
func (t *Trace) ComputeStats() Stats {
	var s Stats
	for i := range t.Insns {
		in := &t.Insns[i]
		if in.Op.IsVector() {
			s.VectorInsns++
			s.VectorOps += int64(in.EffVL())
		} else {
			s.ScalarInsns++
		}
		if in.Op.IsBranch() {
			s.Branches++
		}
		if in.Op.IsMem() {
			n := int64(in.EffVL())
			if in.Op.IsLoad() {
				s.LoadOps += n
				if in.Spill {
					s.SpillLoadOps += n
				}
			} else {
				s.StoreOps += n
				if in.Spill {
					s.SpillStoreOps += n
				}
			}
			if in.Op.IsVector() {
				if in.Op.IsLoad() {
					s.VectorLoads++
				} else {
					s.VectorStores++
				}
			}
		}
	}
	return s
}
