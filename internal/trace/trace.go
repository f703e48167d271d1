// Package trace holds dynamic instruction traces — the input format of both
// simulators — together with a builder API, a compact binary serialisation,
// and the per-program statistics the paper reports in Table 2.
//
// The paper's methodology is trace-driven: benchmark executables instrumented
// with the Dixie tool produced dynamic traces that were then fed to the
// reference and OOOVA simulators. This package is the Go equivalent of that
// trace format; package tgen plays the role of the instrumented benchmarks.
//
// A Trace also carries an opaque memo (Memo, UpdateMemo): data a simulator
// derives from the instructions and reuses across its runs on the trace,
// such as the OOOVA's M-queue memory-dependence plan. The package neither
// reads nor builds it, and imports no machine package.
package trace

import (
	"fmt"
	"sync"

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

	memoMu sync.Mutex // guards memo
	memo   any        // see Memo
}

// Memo returns the trace's memo: data a simulator derived from Insns and
// keeps for its later runs on the trace (the OOOVA's M-queue plan), or nil.
// The trace never reads it. It describes Insns as they were when it was
// derived: a trace is not modified once it has been simulated.
func (t *Trace) Memo() any {
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	return t.memo
}

// UpdateMemo replaces the memo with update(Memo()), atomically: concurrent
// runs on the trace each decide from the memo the others left.
func (t *Trace) UpdateMemo(update func(old any) any) {
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	t.memo = update(t.memo)
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
