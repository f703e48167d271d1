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
}

// Snapshot captures the queue state (deep copy).
func (q *Queue) Snapshot() QueueState {
	return QueueState{
		Window: q.window.Snapshot(),
		Floor:  q.floor,
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
	return nil
}

// MemEntryState is the exported form of one disambiguation record. Pend is
// the store buffer's index of a pending store, -1 once its bus end is
// known.
type MemEntryState struct {
	Start, End uint64
	IsStore    bool
	BusEnd     int64
	Pend       int
}

// MemQueueState is the serialisable state of the memory queue. Free holds
// the next free cycle of the Issue/RF, Range and Dependence stages. Entries
// holds the full disambiguation ring: slot i%len(Entries) of instruction i,
// exactly as the queue indexes it.
type MemQueueState struct {
	Window  sched.RingWindowState
	Free    [3]int64
	Entries []MemEntryState
	N       int
}

// Snapshot captures the memory queue state (deep copy).
func (q *MemQueue) Snapshot() MemQueueState {
	st := MemQueueState{
		Window:  q.window.Snapshot(),
		Free:    q.free,
		Entries: make([]MemEntryState, maxScan),
		N:       q.n,
	}
	for i := range q.entries {
		e := &q.entries[i]
		st.Entries[i] = MemEntryState{Start: e.start, End: e.end, IsStore: e.isStore, BusEnd: e.busEnd, Pend: e.pend}
	}
	return st
}

// Restore replaces the memory queue state with st. The scan window and the
// store buffer are configuration, not state, and are kept. These are
// errors: a window of another capacity, a negative entry count, a ring of
// another size, a live entry whose pending-store index is below -1 (or at
// least 0 in a queue without a store buffer), front-stage cycles that no
// sequence of Advance calls leaves (all zero, or 0 < Issue/RF < Range <
// Dependence), and, in a queue following a plan, more entries than the
// plan's memory instructions. The store buffer checks that the stores
// named exist.
func (q *MemQueue) Restore(st MemQueueState) error {
	if st.N < 0 {
		return fmt.Errorf("iq: memory queue entry count %d is negative", st.N)
	}
	if q.deps != nil && st.N > q.deps.Len() {
		return fmt.Errorf("iq: memory queue entry count %d runs past the plan's %d memory instructions", st.N, q.deps.Len())
	}
	if len(st.Entries) != maxScan {
		return fmt.Errorf("iq: memory queue ring holds %d entries, want %d", len(st.Entries), maxScan)
	}
	for i := max(st.N-maxScan, 0); i < st.N; i++ {
		if p := st.Entries[i%maxScan].Pend; p < -1 || (p >= 0 && q.sb == nil) {
			return fmt.Errorf("iq: memory queue entry %d names pending store %d", i, p)
		}
	}
	if f := st.Free; f != [3]int64{} && !(0 < f[0] && f[0] < f[1] && f[1] < f[2]) {
		return fmt.Errorf("iq: memory queue front-stage cycles %v out of order", f)
	}
	if err := q.window.Restore(st.Window); err != nil {
		return fmt.Errorf("iq: memory queue %w", err)
	}
	q.free = st.Free
	for i, e := range st.Entries {
		q.entries[i] = memEntry{start: e.Start, end: e.End, isStore: e.IsStore, busEnd: e.BusEnd, pend: e.Pend}
	}
	q.n = st.N
	q.ranges = nil // rebuilt from the entries at its first use
	q.rec = nil    // a resumed run records no plan
	return nil
}
