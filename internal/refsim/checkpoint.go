package refsim

// Mid-run checkpointing for the reference machine, mirroring
// ooosim.Checkpoint: the complete deterministic machine state at an
// instruction boundary, serialisable with encoding/gob, restorable into any
// machine built for the same configuration.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"oovec/internal/isa"
	"oovec/internal/metrics"
	"oovec/internal/sched"
	"oovec/internal/sim"
	"oovec/internal/trace"
	"oovec/internal/vregfile"
)

// VRegSnapshot is the exported form of one logical vector register's hazard
// state.
type VRegSnapshot struct {
	Timing        vregfile.Timing
	LastReadStart int64
	HasValue      bool
}

// checkpointLayout numbers the Checkpoint encoding, as ooosim's does:
// DecodeCheckpoint rejects any other. Layout 0, every blob written before
// the number existed, holds the full booking history layout 1 folds.
const checkpointLayout = 1

// Checkpoint is the complete deterministic state of a reference-machine
// simulation at an instruction boundary: instructions [0, NextInsn) have
// been simulated.
type Checkpoint struct {
	// Layout is the encoding's layout number (checkpointLayout).
	Layout int
	// NextInsn is the index of the first instruction not yet simulated.
	NextInsn int
	// TraceLen guards against resuming on the wrong trace.
	TraceLen int

	// FU1, FU2 and Bus hold the bookings States has not folded in.
	FU1, FU2, Bus sched.MonotonicState
	States        metrics.StateBreakdown
	Ports         vregfile.BankedFileState

	AReady [isa.NumLogicalA]int64
	SReady [isa.NumLogicalS]int64
	VRegs  [isa.NumLogicalV]VRegSnapshot

	MaskT        vregfile.Timing
	MaskHasValue bool

	PrevIssue, LastVLTime, Bubble, LastCycle, MemRequests int64

	Stalls metrics.StallBreakdown
}

// Encode serialises the checkpoint with encoding/gob.
func (ck *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Position implements sim.Checkpoint.
func (ck *Checkpoint) Position() (next, traceLen int) { return ck.NextInsn, ck.TraceLen }

// DecodeCheckpoint deserialises a checkpoint produced by Encode. A
// checkpoint of another layout is an error.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(ck); err != nil {
		return nil, err
	}
	if ck.Layout != checkpointLayout {
		return nil, fmt.Errorf("refsim: checkpoint layout %d, this build reads layout %d", ck.Layout, checkpointLayout)
	}
	return ck, nil
}

// Snapshot implements sim.Model: it captures the full machine state at
// instruction boundary nextInsn.
func (m *machine) Snapshot(nextInsn, traceLen int) *Checkpoint {
	ck := &Checkpoint{
		Layout:   checkpointLayout,
		NextInsn: nextInsn,
		TraceLen: traceLen,

		FU1:    m.fu1.Snapshot(),
		FU2:    m.fu2.Snapshot(),
		Bus:    m.bus.Snapshot(),
		States: m.states,
		Ports:  m.ports.Snapshot(),

		AReady: m.aReady,
		SReady: m.sReady,

		MaskT:        m.maskT,
		MaskHasValue: m.maskHasValue,

		PrevIssue:   m.prevIssue,
		LastVLTime:  m.lastVLTime,
		Bubble:      m.bubble,
		LastCycle:   m.lastCycle,
		MemRequests: m.memRequests,

		Stalls: m.stalls,
	}
	for i := range m.vregs {
		v := &m.vregs[i]
		ck.VRegs[i] = VRegSnapshot{Timing: v.timing, LastReadStart: v.lastReadStart, HasValue: v.hasValue}
	}
	return ck
}

// restore replaces the machine state with ck. A port state sized for a
// different register file is an error.
func (m *machine) restore(ck *Checkpoint) error {
	if err := m.ports.Restore(ck.Ports); err != nil {
		return fmt.Errorf("refsim: checkpoint %w", err)
	}
	for _, err := range [...]error{
		m.fu1.Restore(ck.FU1),
		m.fu2.Restore(ck.FU2),
		m.bus.Restore(ck.Bus),
		ck.States.Check(m.fu2, m.fu1, m.bus), // after the units' restores
	} {
		if err != nil {
			return fmt.Errorf("refsim: checkpoint %w", err)
		}
	}
	m.states = ck.States
	m.aReady = ck.AReady
	m.sReady = ck.SReady
	for i := range m.vregs {
		s := &ck.VRegs[i]
		m.vregs[i] = vregState{timing: s.Timing, lastReadStart: s.LastReadStart, hasValue: s.HasValue}
	}
	m.maskT = ck.MaskT
	m.maskHasValue = ck.MaskHasValue
	m.prevIssue = ck.PrevIssue
	m.lastVLTime = ck.LastVLTime
	m.bubble = ck.Bubble
	m.lastCycle = ck.LastCycle
	m.memRequests = ck.MemRequests
	m.stalls = ck.Stalls
	return nil
}

// RunOpts configures a cancellable, checkpointable run (see sim.Opts).
// The zero value behaves exactly like Machine.Run.
type RunOpts = sim.Opts[*Checkpoint]

// RunCheckpointed simulates the trace like Run, with cooperative
// cancellation and checkpointing (see sim.Run). On completion it returns
// (stats, nil, nil); on cancellation (nil, checkpoint, ctx error). A resumed
// run's final stats are byte-identical to an uninterrupted run's.
func (mm *Machine) RunCheckpointed(t *trace.Trace, opts RunOpts) (*metrics.RunStats, *Checkpoint, error) {
	return sim.Run[*Checkpoint, *metrics.RunStats](mm.m, t, opts)
}
