package iq

import (
	"math/rand"
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
	st.Floor = -2
	if err := NewQueue(4).Restore(st); err == nil {
		t.Error("queue: negative issue-port floor accepted")
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
	mst = m.Snapshot()
	mst.Entries = mst.Entries[:maxScan-1]
	if err := NewMemQueue(4).Restore(mst); err == nil {
		t.Error("memory queue: ring of another length accepted")
	}
	mst = m.Snapshot()
	mst.Entries[0].Pend = 0
	if err := NewMemQueue(4).Restore(mst); err == nil {
		t.Error("memory queue: a pending store accepted without a store buffer")
	}
	mst.Entries[0].Pend = -2
	withBuffer := NewMemQueue(4)
	withBuffer.Attach(&testBuffer{q: withBuffer, bus: sched.NewGap()})
	if err := withBuffer.Restore(mst); err == nil {
		t.Error("memory queue: negative pending store accepted")
	}
	for _, free := range [][3]int64{{5, 4, 6}, {0, 1, 2}, {3, 3, 4}} {
		mst = m.Snapshot()
		mst.Free = free
		if err := NewMemQueue(4).Restore(mst); err == nil {
			t.Errorf("memory queue: front-stage cycles %v accepted", free)
		}
	}
}

// TestMemQueueMatchesLinearReference drives the range-indexed Dependence
// check and a linear scan over the same disambiguation ring with random
// accesses — small crowded ranges, ranges at address 0, block-straddling,
// gather-sized and distant ranges, loads and stores — across queue sizes
// around the scan bound, with snapshot/restore into a fresh queue at random
// points, and requires the same constraint for every access.
func TestMemQueueMatchesLinearReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		slots := []int{1, 4, 16, 64, 128, 300}[r.Intn(6)]
		q := NewMemQueue(slots)
		for i := 0; i < 500; i++ {
			var start, end uint64
			switch k := r.Intn(10); {
			case k < 5:
				start = uint64(r.Intn(8192))
				end = start + uint64(r.Intn(512))
			case k < 6:
				end = uint64(r.Intn(4096))
			case k < 8:
				start = uint64(1+r.Intn(3))<<12 - uint64(1+r.Intn(128))
				end = start + uint64(r.Intn(256))
			case k < 9:
				start = uint64(r.Intn(16384))
				end = start + uint64(2*4096+r.Intn(2*128*128))
			default:
				start = uint64(r.Intn(512))<<16 + uint64(r.Intn(4096))
				end = start + uint64(r.Intn(64))
			}
			isStore := r.Intn(3) == 0
			var want int64
			for j := max(q.n-q.scanWin, 0); j < q.n; j++ {
				e := &q.entries[j%maxScan]
				if (isStore || e.isStore) && e.start <= end && start <= e.end {
					want = max(want, e.busEnd)
				}
			}
			if got := q.ConflictConstraint(start, end, isStore); got != want {
				t.Fatalf("seed %d access %d: ConflictConstraint = %d, linear scan %d", seed, i, got, want)
			}
			q.Record(start, end, isStore, int64(i), int64(i+1+r.Intn(50)))
			if r.Intn(40) == 0 {
				st := q.Snapshot()
				q = NewMemQueue(slots)
				if err := q.Restore(st); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
