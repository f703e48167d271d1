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
// restored into a machine built for the identical configuration
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

// PendStoreState is the exported form of one held (lazily placed) store.
type PendStoreState struct {
	Ready, Dep, Occ, Req       int64
	Entry                      int
	Placed, Elidable, Canceled bool
}

// MemSchedState is the serialisable state of the memory/bus scheduler, the
// M queue's store buffer. Pend holds the held stores oldest first, the
// first of them store number Base. The disambiguation ring is the M queue's
// (iq.MemQueueState).
type MemSchedState struct {
	Bus      sched.GapState
	Base     int
	Pend     []PendStoreState
	Requests int64
}

// snapshot captures the scheduler state (deep copy).
func (s *memScheduler) snapshot() MemSchedState {
	st := MemSchedState{
		Bus:      s.bus.Snapshot(),
		Base:     s.base,
		Pend:     make([]PendStoreState, s.held),
		Requests: s.requests,
	}
	for i := range st.Pend {
		p := &s.pend[(s.base+i)&(len(s.pend)-1)]
		st.Pend[i] = PendStoreState{Ready: p.ready, Dep: p.dep, Occ: p.occ, Req: p.req,
			Entry: p.entry, Placed: p.placed, Elidable: p.elidable, Canceled: p.canceled}
	}
	return st
}

// restore replaces the scheduler state with st; mq is the M queue state
// restored beside it. A malformed bus list, a first held store no longer
// pending, Dependence cycles after a ready cycle or out of order (the floor
// relies on both), and out-of-range names between stores and entries are
// errors.
func (s *memScheduler) restore(st MemSchedState, mq *iq.MemQueueState) error {
	if st.Base < 0 || len(st.Pend) > 0 && (st.Pend[0].Placed || st.Pend[0].Canceled) {
		return fmt.Errorf("memory scheduler first held store %d is negative or no longer pending", st.Base)
	}
	for i, p := range st.Pend {
		if p.Entry < 0 || p.Entry >= mq.N {
			return fmt.Errorf("memory scheduler held store %d names entry %d of %d", st.Base+i, p.Entry, mq.N)
		}
		if p.Dep > p.Ready || i > 0 && p.Dep < st.Pend[i-1].Dep {
			return fmt.Errorf("memory scheduler held store %d leaves the Dependence stage at %d, after it is ready or before an older store", st.Base+i, p.Dep)
		}
	}
	for i := max(mq.N-len(mq.Entries), 0); i < mq.N; i++ {
		if e := mq.Entries[i%len(mq.Entries)]; e.Pend >= 0 && (e.Pend < st.Base || e.Pend >= st.Base+len(st.Pend)) {
			return fmt.Errorf("memory queue entry %d names store %d, outside the held stores [%d,%d)",
				i, e.Pend, st.Base, st.Base+len(st.Pend))
		}
	}
	if err := s.bus.Restore(st.Bus); err != nil {
		return fmt.Errorf("address bus %w", err)
	}
	for len(s.pend) < len(st.Pend) {
		s.grow()
	}
	s.base, s.held = st.Base, len(st.Pend)
	s.byReady = s.byReady[:0]
	for i, p := range st.Pend {
		n := st.Base + i
		s.pend[n&(len(s.pend)-1)] = pendStore{ready: p.Ready, dep: p.Dep, occ: p.Occ, req: p.Req,
			entry: p.Entry, placed: p.Placed, elidable: p.Elidable, canceled: p.Canceled}
		if !p.Placed && !p.Canceled && !p.Elidable {
			s.pushReady(readyKey{p.Ready, n})
		}
	}
	s.requests = st.Requests
	return nil
}

// checkpointLayout numbers the Checkpoint encoding. DecodeCheckpoint rejects
// any other, as gob would decode it cleanly into wrong state. Bump it when a
// state type changes meaning. Every blob written before the number existed
// decodes as layout 0; layout 2 gave the ROB one commit ring; layout 3 moved
// the memory scheduler's disambiguation ring into the M queue's; layout 4
// folds finished bookings into States and holds only stores in flight.
const checkpointLayout = 4

// Checkpoint is the complete deterministic state of an OOOVA simulation at
// an instruction boundary: instructions [0, NextInsn) have been simulated.
// It contains only exported value fields, so encoding/gob round-trips it.
type Checkpoint struct {
	// Layout is the encoding's layout number (checkpointLayout).
	Layout int
	// NextInsn is the index of the first instruction not yet simulated.
	NextInsn int
	// TraceLen is the length of the trace the checkpoint was taken on, as a
	// guard against resuming on the wrong trace.
	TraceLen int

	Tables              [isa.NumRegClasses]rename.TableState
	AReady, SReady      []int64
	VTiming, MTiming    []vregfile.Timing
	VTags, STags, ATags rename.TagFileState
	FlatPorts           vregfile.FlatFileState

	// FU1, FU2 and the bus hold the bookings States has not folded in.
	FU1, FU2 sched.GapState
	MSched   MemSchedState
	States   metrics.StateBreakdown

	AQ, SQ, VQ iq.QueueState
	MQ         iq.MemQueueState
	ROB        rob.State
	Pred       bpred.State

	PrevFetch, NextFetchMin, PrevDecode, LastVLReady, LastCycle int64

	EliminatedLoads, EliminatedRequests int64
	ElidedStores, ElidedRequests        int64
	Stalls                              metrics.StallBreakdown
	Occ                                 metrics.Occupancy

	SpillPend map[[2]uint64]int
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
		return nil, fmt.Errorf("ooosim: checkpoint layout %d, this build reads layout %d", ck.Layout, checkpointLayout)
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

		AReady:  append([]int64(nil), m.aReady...),
		SReady:  append([]int64(nil), m.sReady...),
		VTiming: append([]vregfile.Timing(nil), m.vTiming...),
		MTiming: append([]vregfile.Timing(nil), m.mTiming...),
		VTags:   m.vTags.Snapshot(),
		STags:   m.sTags.Snapshot(),
		ATags:   m.aTags.Snapshot(),

		FlatPorts: m.ports.Snapshot(),

		FU1:    m.fu1.Snapshot(),
		FU2:    m.fu2.Snapshot(),
		MSched: m.msched.snapshot(),
		States: m.states,

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
	}
	for class, tb := range m.tables {
		if tb != nil {
			ck.Tables[class] = tb.Snapshot()
		}
	}
	if m.spillPend != nil {
		ck.SpillPend = make(map[[2]uint64]int, len(m.spillPend))
		for k, v := range m.spillPend {
			ck.SpillPend[k] = v
		}
	}
	return ck
}

// restore replaces the machine state with ck. The machine must be built for
// the configuration the checkpoint was taken under; structural
// mismatches are reported as errors rather than silently corrupting the run.
func (m *machine) restore(ck *Checkpoint) error {
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
		if err := tb.Restore(ck.Tables[class]); err != nil {
			return fmt.Errorf("ooosim: checkpoint %w", err)
		}
	}
	copy(m.aReady, ck.AReady)
	copy(m.sReady, ck.SReady)
	copy(m.vTiming, ck.VTiming)
	copy(m.mTiming, ck.MTiming)
	for _, err := range [...]error{
		m.ports.Restore(ck.FlatPorts),
		m.vTags.Restore(ck.VTags),
		m.sTags.Restore(ck.STags),
		m.aTags.Restore(ck.ATags),
		m.fu1.Restore(ck.FU1),
		m.fu2.Restore(ck.FU2),
		m.aQ.Restore(ck.AQ),
		m.sQ.Restore(ck.SQ),
		m.vQ.Restore(ck.VQ),
		m.mQ.Restore(ck.MQ),
		m.rob.Restore(ck.ROB),
	} {
		if err != nil {
			return fmt.Errorf("ooosim: checkpoint %w", err)
		}
	}
	// The store buffer's names are checked against an M queue restored
	// without error.
	if err := m.msched.restore(ck.MSched, &ck.MQ); err != nil {
		return fmt.Errorf("ooosim: checkpoint %w", err)
	}
	m.states = ck.States
	if err := m.states.Check(m.fu2, m.fu1, m.msched.bus); err != nil {
		return fmt.Errorf("ooosim: checkpoint %w", err)
	}
	if err := m.pred.Restore(ck.Pred); err != nil {
		return fmt.Errorf("ooosim: checkpoint %w", err)
	}

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
	return nil
}

// RunOpts configures a cancellable, checkpointable run (see sim.Opts).
// The zero value behaves exactly like Machine.Run.
type RunOpts = sim.Opts[*Checkpoint]

// RunCheckpointed simulates the trace like Run, with cooperative
// cancellation and checkpointing (see sim.Run). On completion it returns
// (result, nil, nil); on cancellation (nil, checkpoint, ctx error). A run
// resumed from that checkpoint — on this machine or any other machine built
// for the same configuration — ends byte-identical to an uninterrupted run.
func (mm *Machine) RunCheckpointed(t *trace.Trace, opts RunOpts) (*Result, *Checkpoint, error) {
	return sim.Run[*Checkpoint, *Result](mm.m, t, opts)
}
