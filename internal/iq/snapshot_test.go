package iq

import (
	"testing"

	"oovec/internal/sched"
)

// TestQueueRestoreResumesOccupancy restores a mid-run queue into a fresh one
// and checks that issue times and occupancy continue identically.
func TestQueueRestoreResumesOccupancy(t *testing.T) {
	a := NewQueue(4)
	for i := int64(0); i < 9; i++ {
		a.Issue(i, 20-2*i)
	}
	b := NewQueue(4)
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := int64(9); i < 20; i++ {
		if ga, gb := a.Occupied(i), b.Occupied(i); ga != gb {
			t.Fatalf("Occupied(%d): original %d, restored %d", i, ga, gb)
		}
		if ia, ib := a.Issue(i, 30-i), b.Issue(i, 30-i); ia != ib {
			t.Fatalf("issue %d: original %d, restored %d", i, ia, ib)
		}
	}
}

// TestRestoreRejectsMalformedState checks that malformed queue states are
// errors, never a panic on a later issue or occupancy sample.
func TestRestoreRejectsMalformedState(t *testing.T) {
	q := NewQueue(4)
	q.Issue(0, 3)
	st := q.Snapshot()
	st.Window.Next = 4
	if err := NewQueue(4).Restore(st); err == nil {
		t.Error("queue: out-of-range ring index accepted")
	}
	st = q.Snapshot()
	st.Slots.IV = []sched.Interval{{Start: 8, End: 9}, {Start: 2, End: 3}}
	if err := NewQueue(4).Restore(st); err == nil {
		t.Error("queue: unsorted issue-port intervals accepted")
	}

	m := NewMemQueue(4)
	m.Record(0, 8, true, 2, 5)
	mst := m.Snapshot()
	mst.N = -1
	if err := NewMemQueue(4).Restore(mst); err == nil {
		t.Error("memory queue: negative entry count accepted")
	}
	mst = m.Snapshot()
	mst.Window.Count = 9
	if err := NewMemQueue(4).Restore(mst); err == nil {
		t.Error("memory queue: window count past capacity accepted")
	}
	mst = m.Snapshot()
	if err := NewMemQueue(8).Restore(mst); err == nil {
		t.Error("memory queue: window of another capacity accepted")
	}
}
