package ooosim

import (
	"fmt"

	"oovec/internal/isa"
	"oovec/internal/probe"
	"oovec/internal/rename"
	"oovec/internal/trace"
)

// faultSink records the decode/issue cycles RunWithFault needs while
// forwarding every event to the caller's sink, if any.
type faultSink struct {
	inner    probe.Sink
	decodes  []int64
	faultIdx int
	detect   int64
}

// Insn implements probe.Sink.
func (p *faultSink) Insn(e probe.Event) {
	p.decodes = append(p.decodes, e.Decode)
	if e.Index == p.faultIdx {
		p.detect = e.Issue
	}
	if p.inner != nil {
		p.inner.Insn(e)
	}
}

// Stall implements probe.Sink.
func (p *faultSink) Stall(c probe.Cause, cycles int64) {
	if p.inner != nil {
		p.inner.Stall(c, cycles)
	}
}

// FaultResult describes a precise-trap experiment (§5): a fault injected at
// one instruction, the in-flight younger instructions squashed, and the
// rename state rolled back to the precise architectural state at the fault.
type FaultResult struct {
	// FaultIndex is the trace index of the faulting instruction.
	FaultIndex int
	// InFlight is the number of instructions (the faulting one included)
	// that had entered the pipeline when the fault was detected and were
	// rolled back.
	InFlight int
	// DetectCycle is the cycle the fault was detected (the faulting
	// instruction's execution).
	DetectCycle int64
	// PreciseCycle is the cycle at which the precise state was recovered
	// (all older instructions committed).
	PreciseCycle int64
	// Tables is the rename state after rollback: the precise architectural
	// mapping at the faulting instruction.
	Tables map[isa.RegClass]*rename.Table
}

// RunWithFault simulates the trace under cfg with a page-fault (or any
// precise exception) injected at instruction faultIdx. Older instructions
// commit normally; the faulting instruction and every younger instruction
// that had entered the pipeline are squashed and their renames undone using
// the reorder-buffer records, exactly as §5 describes. The returned tables
// hold the recovered precise mapping.
//
// Precise traps require the late-commit model; RunWithFault forces it.
func RunWithFault(t *trace.Trace, cfg Config, faultIdx int) (*FaultResult, error) {
	if faultIdx < 0 || faultIdx >= t.Len() {
		return nil, fmt.Errorf("ooosim: fault index %d out of range [0,%d)", faultIdx, t.Len())
	}
	cfg = cfg.WithDefaults()

	m := newMachine(cfg)
	if err := m.Begin(t, nil); err != nil {
		return nil, err
	}
	m.suppressFrom = faultIdx
	m.records = make([]rename.Record, 0, t.Len())

	sink := &faultSink{inner: cfg.Sink, decodes: make([]int64, 0, t.Len()), faultIdx: faultIdx}
	m.cfg.Sink = sink

	// Process the faulting instruction, then every younger instruction that
	// would have entered the pipeline before the fault was detected —
	// bounded by the reorder buffer capacity (nothing past a full ROB can
	// have been renamed) and by free-register exhaustion (a decode stalled
	// on an empty free list never enters the pipeline, because squashed
	// instructions release nothing).
	last := faultIdx
	var preciseAt int64
	for i := 0; i < t.Len(); i++ {
		in := &t.Insns[i]
		if i == faultIdx {
			preciseAt = m.rob.LastCommit()
		}
		if i > faultIdx {
			if i >= faultIdx+cfg.ROBSize || sink.decodes[i-1] > sink.detect {
				break
			}
			if in.WritesReg() && m.tables[in.Dst.Class].FreeCount() == 0 {
				break
			}
		}
		m.Step(i, in)
		last = i
	}

	inflight := last - faultIdx + 1
	tables := m.tableMap()
	rename.Rollback(tables, m.records[faultIdx:last+1])

	if err := m.checkTables(); err != nil {
		return nil, err
	}
	return &FaultResult{
		FaultIndex:   faultIdx,
		InFlight:     inflight,
		DetectCycle:  sink.detect,
		PreciseCycle: preciseAt,
		Tables:       tables,
	}, nil
}

// checkTables verifies every rename table's invariants after a rollback.
// It scans the class-indexed array, not the map form: with several corrupt
// tables the reported class must not depend on map iteration order.
func (m *machine) checkTables() error {
	for class, tb := range m.tables {
		if tb == nil {
			continue
		}
		if err := tb.CheckInvariants(); err != nil {
			return fmt.Errorf("ooosim: post-rollback state of %v corrupt: %w", isa.RegClass(class), err)
		}
	}
	return nil
}
