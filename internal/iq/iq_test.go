package iq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueIssuesOutOfOrder(t *testing.T) {
	q := NewQueue(16)
	// Older instruction ready late; younger ready early. The younger one
	// grabs the earlier issue slot (the Gap allocator backfills).
	older := q.Issue(0, 100)
	younger := q.Issue(1, 5)
	if older != 100 {
		t.Errorf("older issue = %d, want 100", older)
	}
	if younger != 5 {
		t.Errorf("younger issue = %d, want 5 (out-of-order issue)", younger)
	}
}

func TestQueueOnePerCycle(t *testing.T) {
	q := NewQueue(16)
	// Three instructions all ready at cycle 10: issue at 10, 11, 12.
	got := []int64{q.Issue(0, 10), q.Issue(0, 10), q.Issue(0, 10)}
	want := []int64{10, 11, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("issue[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// All three hold a slot until they issue.
	if got := q.Occupied(9); got != 3 {
		t.Errorf("occupied at 9 = %d, want 3", got)
	}
}

func TestQueueCapacityBlocksAdmission(t *testing.T) {
	q := NewQueue(2)
	q.Issue(0, 50) // occupies a slot until issue at 50
	q.Issue(0, 60)
	// Queue of 2 full; oldest leaves at its issue time 50.
	if got := q.AdmitConstraint(); got != 50 {
		t.Errorf("AdmitConstraint = %d, want 50", got)
	}
}

func TestQueueDefaultCapacity(t *testing.T) {
	q := NewQueue(0)
	for i := 0; i < DefaultSlots; i++ {
		q.Issue(int64(i), int64(1000+i))
	}
	if got := q.AdmitConstraint(); got != 1000 {
		t.Errorf("AdmitConstraint = %d, want 1000 (16-slot default)", got)
	}
}

func TestMemQueueFrontPipelineInOrder(t *testing.T) {
	q := NewMemQueue(16)
	// Two instructions entering back to back: the 3-stage pipe adds 3
	// cycles each, and stage occupancy is 1/cycle.
	d1 := q.Advance(0)
	d2 := q.Advance(1)
	if d1 != 3 {
		t.Errorf("first dependence-stage exit = %d, want 3", d1)
	}
	if d2 != 4 {
		t.Errorf("second dependence-stage exit = %d, want 4", d2)
	}
	// Even an instruction entering much later keeps stage order.
	d3 := q.Advance(2)
	if d3 != 5 {
		t.Errorf("third exit = %d, want 5", d3)
	}
}

func TestMemQueueConflictDetection(t *testing.T) {
	q := NewMemQueue(16)
	// A store to [100, 199] that will finish its requests at cycle 80.
	q.Record(100, 199, true, 40, 80)
	// An overlapping load must wait for the store's requests.
	if got := q.ConflictConstraint(150, 250, false); got != 80 {
		t.Errorf("RAW constraint = %d, want 80", got)
	}
	// A disjoint load sails through.
	if got := q.ConflictConstraint(300, 400, false); got != 0 {
		t.Errorf("disjoint constraint = %d, want 0", got)
	}
}

func TestMemQueueLoadLoadNeverConflicts(t *testing.T) {
	q := NewMemQueue(16)
	q.Record(100, 199, false, 40, 80) // a load
	if got := q.ConflictConstraint(100, 199, false); got != 0 {
		t.Errorf("load-load constraint = %d, want 0", got)
	}
	// But a store against an earlier load (WAR) does conflict.
	if got := q.ConflictConstraint(100, 199, true); got != 80 {
		t.Errorf("WAR constraint = %d, want 80", got)
	}
}

func TestMemQueueStoreStoreOrdered(t *testing.T) {
	q := NewMemQueue(16)
	q.Record(0x1000, 0x11ff, true, 10, 74)
	if got := q.ConflictConstraint(0x1100, 0x12ff, true); got != 74 {
		t.Errorf("WAW constraint = %d, want 74", got)
	}
}

func TestMemQueueMultipleConflictsTakeMax(t *testing.T) {
	q := NewMemQueue(16)
	q.Record(100, 199, true, 10, 50)
	q.Record(150, 249, true, 60, 120)
	if got := q.ConflictConstraint(180, 300, false); got != 120 {
		t.Errorf("constraint = %d, want max 120", got)
	}
}

func TestMemQueueCapacity(t *testing.T) {
	q := NewMemQueue(2)
	q.Record(0, 7, false, 30, 31)
	q.Record(8, 15, false, 40, 41)
	if got := q.AdmitConstraint(); got != 30 {
		t.Errorf("AdmitConstraint = %d, want 30 (oldest leaves at bus start)", got)
	}
}

func TestMemQueueScanWindowBounded(t *testing.T) {
	q := NewMemQueue(16)
	// Record far more entries than the scan window; old conflicting
	// entries fall out of the window.
	q.Record(0x5000, 0x50ff, true, 1, 999999) // would block forever if scanned
	for i := 0; i < maxScan; i++ {
		q.Record(uint64(i*0x1000), uint64(i*0x1000+7), false, int64(i), int64(i+1))
	}
	if got := q.ConflictConstraint(0x5000, 0x50ff, false); got == 999999 {
		t.Error("entry outside the scan window must not constrain")
	}
}

func TestPropertyQueueIssueRespectsReadiness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewQueue(1 + r.Intn(32))
		for i := 0; i < 200; i++ {
			enter := int64(r.Intn(100))
			ready := int64(r.Intn(300))
			at := q.Issue(enter, ready)
			if at < enter || at < ready {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyQueueNeverIssuesTwoPerCycle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewQueue(64)
		seen := map[int64]bool{}
		for i := 0; i < 300; i++ {
			at := q.Issue(0, int64(r.Intn(200)))
			if seen[at] {
				return false
			}
			seen[at] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMemQueueFrontStagesMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewMemQueue(16)
		prev := int64(-1)
		enter := int64(0)
		for i := 0; i < 200; i++ {
			enter += int64(r.Intn(3))
			out := q.Advance(enter)
			if out <= prev {
				return false // in-order pipeline must preserve order strictly
			}
			prev = out
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
