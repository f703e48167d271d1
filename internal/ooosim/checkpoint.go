package ooosim

// Mid-run checkpointing: a Checkpoint serialises the complete deterministic
// machine state at an instruction boundary, so a preempted or killed run can
// resume from where it stopped — in this process or another — and produce
// output byte-identical to an uninterrupted run. RunCheckpointed runs the
// machine through sim.Run, which adds the cheap cancellation checks (every
// CheckEvery instructions) and periodic checkpoint callbacks the ovserve job
// layer is built on.
//
// The simulator is trace-driven: all state is the timing/rename machinery,
// so a checkpoint is the component snapshots (package sched, iq, rob,
// bpred, rename, vregfile) plus the machine's own scalars. Scratch buffers
// and configuration are deliberately excluded — a checkpoint is only
// restored into a machine already reset to the identical configuration
// (the job layer guarantees this by keying checkpoints on the same
// canonical-config hash as results).

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"oovec/internal/bpred"
	"oovec/internal/iq"
	"oovec/internal/isa"
	"oovec/internal/metrics"
	"oovec/internal/rename"
	"oovec/internal/rob"
	"oovec/internal/sched"
	"oovec/internal/sim"
	"oovec/internal/trace"
	"oovec/internal/vregfile"
)

// PendStoreState is the exported form of one pending (lazily placed) store.
type PendStoreState struct {
	Ready, Occ, Req            int64
	Entry                      int
	Placed, Elidable, Canceled bool
}

// MemSchedEntryState is the exported form of one bus disambiguation record.
type MemSchedEntryState struct {
	RStart, REnd uint64
	IsStore      bool
	BusEnd       int64
	PendIdx      int
}

// MemSchedState is the serialisable state of the memory/bus scheduler.
// Entries holds the full disambiguation ring, indexed exactly as the
// scheduler indexes it (slot i%len(Entries) of access i).
type MemSchedState struct {
	Bus     sched.GapState
	Pend    []PendStoreState
	Entries []MemSchedEntryState
	N       int

	Requests, Conflicts, LastEnd int64
}

// snapshot captures the scheduler state (deep copy).
func (s *memScheduler) snapshot() MemSchedState {
	st := MemSchedState{
		Bus:       s.bus.Snapshot(),
		Pend:      make([]PendStoreState, len(s.pend)),
		Entries:   make([]MemSchedEntryState, memScanWindow),
		N:         s.n,
		Requests:  s.requests,
		Conflicts: s.conflicts,
		LastEnd:   s.lastEnd,
	}
	for i := range s.pend {
		p := &s.pend[i]
		st.Pend[i] = PendStoreState{Ready: p.ready, Occ: p.occ, Req: p.req,
			Entry: p.entry, Placed: p.placed, Elidable: p.elidable, Canceled: p.canceled}
	}
	for i := range s.entries {
		e := &s.entries[i]
		st.Entries[i] = MemSchedEntryState{RStart: e.rstart, REnd: e.rend,
			IsStore: e.isStore, BusEnd: e.busEnd, PendIdx: e.pendIdx}
	}
	return st
}

// restore replaces the scheduler state with st, keeping the scan-window
// capacity (configuration, not state).
func (s *memScheduler) restore(st MemSchedState) {
	s.bus.Restore(st.Bus)
	s.pend = s.pend[:0]
	s.byReady = s.byReady[:0]
	for i, p := range st.Pend {
		s.pend = append(s.pend, pendStore{ready: p.Ready, occ: p.Occ, req: p.Req,
			entry: p.Entry, placed: p.Placed, elidable: p.Elidable, canceled: p.Canceled})
		if !p.Placed && !p.Canceled && !p.Elidable {
			s.pushReady(i)
		}
	}
	for i := range s.entries {
		s.entries[i] = memEntry{}
	}
	for i, e := range st.Entries {
		if i >= memScanWindow {
			break
		}
		s.entries[i] = memEntry{rstart: e.RStart, rend: e.REnd,
			isStore: e.IsStore, busEnd: e.BusEnd, pendIdx: e.PendIdx}
	}
	s.n = st.N
	s.requests, s.conflicts, s.lastEnd = st.Requests, st.Conflicts, st.LastEnd
}

// Checkpoint is the complete deterministic state of an OOOVA simulation at
// an instruction boundary: instructions [0, NextInsn) have been simulated.
// It contains only exported value fields, so encoding/gob round-trips it.
type Checkpoint struct {
	// NextInsn is the index of the first instruction not yet simulated.
	NextInsn int
	// TraceLen is the length of the trace the checkpoint was taken on, as a
	// guard against resuming on the wrong trace.
	TraceLen int

	Tables              [isa.NumRegClasses]rename.TableState
	AReady, SReady      []int64
	VTiming, MTiming    []vregfile.Timing
	VTags, STags, ATags rename.TagFileState

	// Banked selects which port-file state is populated, mirroring
	// Config.BankedPorts.
	Banked      bool
	FlatPorts   vregfile.FlatFileState
	BankedPorts vregfile.BankedFileState

	FU1, FU2 sched.GapState
	MSched   MemSchedState

	AQ, SQ, VQ iq.QueueState
	MQ         iq.MemQueueState
	ROB        rob.State
	Pred       bpred.State

	PrevFetch, NextFetchMin, PrevDecode, LastVLReady, LastCycle int64

	EliminatedLoads, EliminatedRequests int64
	ElidedStores, ElidedRequests        int64
	Stalls                              metrics.StallBreakdown
	Occ                                 metrics.Occupancy

	SuppressFrom int
	SpillPend    map[[2]uint64]int
	Records      []rename.Record
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

// DecodeCheckpoint deserialises a checkpoint produced by Encode.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// Snapshot implements sim.Model: it captures the full machine state at
// instruction boundary nextInsn.
func (m *machine) Snapshot(nextInsn, traceLen int) *Checkpoint {
	ck := &Checkpoint{
		NextInsn: nextInsn,
		TraceLen: traceLen,

		AReady:  append([]int64(nil), m.aReady...),
		SReady:  append([]int64(nil), m.sReady...),
		VTiming: append([]vregfile.Timing(nil), m.vTiming...),
		MTiming: append([]vregfile.Timing(nil), m.mTiming...),
		VTags:   m.vTags.Snapshot(),
		STags:   m.sTags.Snapshot(),
		ATags:   m.aTags.Snapshot(),

		FU1:    m.fu1.Snapshot(),
		FU2:    m.fu2.Snapshot(),
		MSched: m.msched.snapshot(),

		AQ:   m.aQ.Snapshot(),
		SQ:   m.sQ.Snapshot(),
		VQ:   m.vQ.Snapshot(),
		MQ:   m.mQ.Snapshot(),
		ROB:  m.rob.Snapshot(),
		Pred: m.pred.Snapshot(),

		PrevFetch:    m.prevFetch,
		NextFetchMin: m.nextFetchMin,
		PrevDecode:   m.prevDecode,
		LastVLReady:  m.lastVLReady,
		LastCycle:    m.lastCycle,

		EliminatedLoads:    m.eliminatedLoads,
		EliminatedRequests: m.eliminatedRequests,
		ElidedStores:       m.elidedStores,
		ElidedRequests:     m.elidedRequests,
		Stalls:             m.stalls,
		Occ:                m.occ,

		SuppressFrom: m.suppressFrom,
	}
	for class, tb := range m.tables {
		if tb != nil {
			ck.Tables[class] = tb.Snapshot()
		}
	}
	switch p := m.ports.(type) {
	case *vregfile.FlatFile:
		ck.FlatPorts = p.Snapshot()
	case *vregfile.BankedFile:
		ck.Banked = true
		ck.BankedPorts = p.Snapshot()
	}
	if m.spillPend != nil {
		ck.SpillPend = make(map[[2]uint64]int, len(m.spillPend))
		for k, v := range m.spillPend {
			ck.SpillPend[k] = v
		}
	}
	if len(m.records) > 0 {
		ck.Records = append([]rename.Record(nil), m.records...)
	}
	return ck
}

// restore replaces the machine state with ck. The machine must already be
// reset to the configuration the checkpoint was taken under; structural
// mismatches are reported as errors rather than silently corrupting the run.
func (m *machine) restore(ck *Checkpoint) error {
	if ck.Banked != m.cfg.BankedPorts {
		return fmt.Errorf("ooosim: checkpoint port organisation mismatch (banked=%v, cfg banked=%v)",
			ck.Banked, m.cfg.BankedPorts)
	}
	if len(ck.AReady) != len(m.aReady) || len(ck.SReady) != len(m.sReady) ||
		len(ck.VTiming) != len(m.vTiming) || len(ck.MTiming) != len(m.mTiming) {
		return fmt.Errorf("ooosim: checkpoint register-file sizes (%d/%d/%d/%d) do not match configuration (%d/%d/%d/%d)",
			len(ck.AReady), len(ck.SReady), len(ck.VTiming), len(ck.MTiming),
			len(m.aReady), len(m.sReady), len(m.vTiming), len(m.mTiming))
	}
	for class, tb := range m.tables {
		if tb == nil {
			continue
		}
		st := ck.Tables[class]
		if len(st.Mapping) != tb.NumLogical || len(st.Refcnt) != tb.NumPhysical {
			return fmt.Errorf("ooosim: checkpoint rename table %v sized %d/%d, configuration wants %d/%d",
				isa.RegClass(class), len(st.Mapping), len(st.Refcnt), tb.NumLogical, tb.NumPhysical)
		}
		tb.Restore(st)
	}
	copy(m.aReady, ck.AReady)
	copy(m.sReady, ck.SReady)
	copy(m.vTiming, ck.VTiming)
	copy(m.mTiming, ck.MTiming)
	m.vTags.Restore(ck.VTags)
	m.sTags.Restore(ck.STags)
	m.aTags.Restore(ck.ATags)
	var err error
	switch p := m.ports.(type) {
	case *vregfile.FlatFile:
		err = p.Restore(ck.FlatPorts)
	case *vregfile.BankedFile:
		err = p.Restore(ck.BankedPorts)
	}
	if err != nil {
		return fmt.Errorf("ooosim: checkpoint %w", err)
	}
	m.fu1.Restore(ck.FU1)
	m.fu2.Restore(ck.FU2)
	m.msched.restore(ck.MSched)
	m.aQ.Restore(ck.AQ)
	m.sQ.Restore(ck.SQ)
	m.vQ.Restore(ck.VQ)
	m.mQ.Restore(ck.MQ)
	m.rob.Restore(ck.ROB)
	m.pred.Restore(ck.Pred)

	m.prevFetch = ck.PrevFetch
	m.nextFetchMin = ck.NextFetchMin
	m.prevDecode = ck.PrevDecode
	m.lastVLReady = ck.LastVLReady
	m.lastCycle = ck.LastCycle

	m.eliminatedLoads = ck.EliminatedLoads
	m.eliminatedRequests = ck.EliminatedRequests
	m.elidedStores = ck.ElidedStores
	m.elidedRequests = ck.ElidedRequests
	m.stalls = ck.Stalls
	m.occ = ck.Occ

	m.suppressFrom = ck.SuppressFrom
	if ck.SpillPend != nil {
		if m.spillPend == nil {
			m.spillPend = make(map[[2]uint64]int, len(ck.SpillPend))
		} else {
			clear(m.spillPend)
		}
		for k, v := range ck.SpillPend {
			m.spillPend[k] = v
		}
	}
	m.records = append(m.records[:0], ck.Records...)
	return nil
}

// RunOpts configures a cancellable, checkpointable run (see sim.Opts).
// The zero value behaves exactly like Machine.Run.
type RunOpts = sim.Opts[*Checkpoint]

// RunCheckpointed simulates the trace like Run, with cooperative
// cancellation and checkpointing (see sim.Run). On completion it returns
// (result, nil, nil); on cancellation (nil, checkpoint, ctx error). A run
// resumed from that checkpoint — on this machine or any other machine reset
// to the same configuration — ends byte-identical to an uninterrupted run.
func (mm *Machine) RunCheckpointed(t *trace.Trace, opts RunOpts) (*Result, *Checkpoint, error) {
	return sim.Run[*Checkpoint, *Result](mm.m, t, opts)
}
