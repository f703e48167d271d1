package iq

import (
	"fmt"

	"oovec/internal/sched"
)

// Snapshot/Restore support for mid-run checkpointing (see package sched).

// QueueState is the serialisable state of an A/S/V issue queue.
type QueueState struct {
	Window sched.RingWindowState
	Slots  sched.GapState
	Issued int64
}

// Snapshot captures the queue state (deep copy).
func (q *Queue) Snapshot() QueueState {
	return QueueState{
		Window: q.window.Snapshot(),
		Slots:  q.slots.Snapshot(),
		Issued: q.issued,
	}
}

// Restore replaces the queue state with st. A window of another capacity
// or a malformed issue-port interval list is an error.
func (q *Queue) Restore(st QueueState) error {
	if err := q.window.Restore(st.Window); err != nil {
		return fmt.Errorf("iq: %w", err)
	}
	if err := q.slots.Restore(st.Slots); err != nil {
		return fmt.Errorf("iq: issue port %w", err)
	}
	q.issued = st.Issued
	return nil
}

// MemEntryState is the exported form of one disambiguation record.
type MemEntryState struct {
	Start, End uint64
	IsStore    bool
	BusEnd     int64
}

// MemQueueState is the serialisable state of the memory queue. Entries
// holds the full disambiguation ring: slot i%len(Entries) of instruction i,
// exactly as the queue indexes it.
type MemQueueState struct {
	Window                  sched.RingWindowState
	IssueRF, RangeSt, DepSt sched.MonotonicState
	Entries                 []MemEntryState
	N                       int
	Conflicts               int64
}

// Snapshot captures the memory queue state (deep copy).
func (q *MemQueue) Snapshot() MemQueueState {
	st := MemQueueState{
		Window:    q.window.Snapshot(),
		IssueRF:   q.issueRF.Snapshot(),
		RangeSt:   q.rangeSt.Snapshot(),
		DepSt:     q.depSt.Snapshot(),
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
// capacity parameter, not state, and is kept. A window of another capacity
// or a negative entry count is an error.
func (q *MemQueue) Restore(st MemQueueState) error {
	if st.N < 0 {
		return fmt.Errorf("iq: memory queue entry count %d is negative", st.N)
	}
	if err := q.window.Restore(st.Window); err != nil {
		return fmt.Errorf("iq: memory queue %w", err)
	}
	q.issueRF.Restore(st.IssueRF)
	q.rangeSt.Restore(st.RangeSt)
	q.depSt.Restore(st.DepSt)
	for i := range q.entries {
		q.entries[i] = memEntry{}
	}
	for i, e := range st.Entries {
		if i >= maxScan {
			break
		}
		q.entries[i] = memEntry{start: e.Start, end: e.End, isStore: e.IsStore, busEnd: e.BusEnd}
	}
	q.n = st.N
	q.conflicts = st.Conflicts
	if q.ranges != nil || q.n > 0 {
		q.rebuildRanges()
	}
	return nil
}
