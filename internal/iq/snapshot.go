package iq

import (
	"fmt"

	"oovec/internal/sched"
)

// Snapshot/Restore support for mid-run checkpointing (see package sched).

// QueueState is the serialisable state of an A/S/V issue queue.
type QueueState struct {
	Window sched.RingWindowState
	Floor  int64
	Issued int64
}

// Snapshot captures the queue state (deep copy).
func (q *Queue) Snapshot() QueueState {
	return QueueState{
		Window: q.window.Snapshot(),
		Floor:  q.floor,
		Issued: q.issued,
	}
}

// Restore replaces the queue state with st. A window of another capacity
// or a negative issue-port floor is an error.
func (q *Queue) Restore(st QueueState) error {
	if st.Floor < 0 {
		return fmt.Errorf("iq: issue-port floor %d is negative", st.Floor)
	}
	if err := q.window.Restore(st.Window); err != nil {
		return fmt.Errorf("iq: %w", err)
	}
	q.floor = st.Floor
	q.issued = st.Issued
	return nil
}

// MemEntryState is the exported form of one disambiguation record.
type MemEntryState struct {
	Start, End uint64
	IsStore    bool
	BusEnd     int64
}

// MemQueueState is the serialisable state of the memory queue. Free holds
// the next free cycle of the Issue/RF, Range and Dependence stages. Entries
// holds the full disambiguation ring: slot i%len(Entries) of instruction i,
// exactly as the queue indexes it.
type MemQueueState struct {
	Window    sched.RingWindowState
	Free      [3]int64
	Entries   []MemEntryState
	N         int
	Conflicts int64
}

// Snapshot captures the memory queue state (deep copy).
func (q *MemQueue) Snapshot() MemQueueState {
	st := MemQueueState{
		Window:    q.window.Snapshot(),
		Free:      q.free,
		Entries:   make([]MemEntryState, maxScan),
		N:         q.n,
		Conflicts: q.conflicts,
	}
	for i := range q.entries {
		e := &q.entries[i]
		st.Entries[i] = MemEntryState{Start: e.start, End: e.end, IsStore: e.isStore, BusEnd: e.busEnd}
	}
	return st
}

// Restore replaces the memory queue state with st. The scan window is a
// capacity parameter, not state, and is kept. A window of another capacity,
// a negative entry count or front-stage cycles that no sequence of Advance
// calls leaves (all zero, or 0 < Issue/RF < Range < Dependence) is an error.
func (q *MemQueue) Restore(st MemQueueState) error {
	if st.N < 0 {
		return fmt.Errorf("iq: memory queue entry count %d is negative", st.N)
	}
	if f := st.Free; f != [3]int64{} && !(0 < f[0] && f[0] < f[1] && f[1] < f[2]) {
		return fmt.Errorf("iq: memory queue front-stage cycles %v out of order", f)
	}
	if err := q.window.Restore(st.Window); err != nil {
		return fmt.Errorf("iq: memory queue %w", err)
	}
	q.free = st.Free
	q.entries = [maxScan]memEntry{}
	for i, e := range st.Entries[:min(len(st.Entries), maxScan)] {
		q.entries[i] = memEntry{start: e.Start, end: e.End, isStore: e.IsStore, busEnd: e.BusEnd}
	}
	q.n = st.N
	q.conflicts = st.Conflicts
	if q.ranges != nil || q.n > 0 {
		q.rebuildRanges()
	}
	return nil
}
