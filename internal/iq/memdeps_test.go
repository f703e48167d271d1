package iq

import (
	"math/rand"
	"slices"
	"testing"
)

// access is the byte range [start, end] and store flag of one memory
// instruction, as the Range stage computes them.
type access struct {
	start, end uint64
	store      bool
}

// randomAccesses returns n accesses of the shapes the Range stage
// produces, and inverted ones it does not: small crowded ranges, ranges at
// address 0, block straddles, gather-sized ranges, distant ranges.
func randomAccesses(r *rand.Rand, n int) []access {
	accs := make([]access, n)
	for i := range accs {
		var start, end uint64
		switch k := r.Intn(20); {
		case k < 10:
			start = uint64(r.Intn(8192))
			end = start + uint64(r.Intn(512))
		case k < 12:
			end = uint64(r.Intn(4096))
		case k < 15:
			start = uint64(1+r.Intn(3))<<12 - uint64(1+r.Intn(128))
			end = start + uint64(r.Intn(256))
		case k < 17:
			start = uint64(r.Intn(16384))
			end = start + uint64(2*4096+r.Intn(2*128*128))
		case k < 19:
			start = uint64(r.Intn(512))<<16 + uint64(r.Intn(4096))
			end = start + uint64(r.Intn(64))
		default:
			end = uint64(r.Intn(8192))
			start = end + 1 + uint64(r.Intn(64))
		}
		accs[i] = access{start: start, end: end, store: r.Intn(3) == 0}
	}
	return accs
}

// linearDeps is the reference plan at window win: for each access, a scan
// of the previous win, oldest first, keeping those whose ranges overlap
// with a store among the two.
func linearDeps(accs []access, win int) [][]uint8 {
	deps := make([][]uint8, len(accs))
	for k, a := range accs {
		for j := max(k-win, 0); j < k; j++ {
			e := accs[j]
			if (a.store || e.store) && e.start <= a.end && a.start <= e.end {
				deps[k] = append(deps[k], uint8(k-1-j))
			}
		}
	}
	return deps
}

// liftPlanBound lets queues record plans of any density until the
// returned function restores the bound.
func liftPlanBound() (restore func()) {
	old := maxPlanConflicts
	maxPlanConflicts = maxScan
	return func() { maxPlanConflicts = old }
}

// recordPlan runs accs through a Reset queue of the given capacity, as
// the OOOVA does: a Dependence check, then Record; a load for which skip
// reports true (skip may be nil) is recorded without a check, as an
// eliminated load is. It returns the plan the queue recorded.
func recordPlan(slots int, accs []access, skip func(k int) bool) *MemDeps {
	q := NewMemQueue(slots)
	q.Reset()
	for k, a := range accs {
		if a.store || skip == nil || !skip(k) {
			q.ConflictConstraint(a.start, a.end, a.store)
		}
		q.Record(a.start, a.end, a.store, int64(k), int64(k)+1)
	}
	return q.Recorded()
}

// checkPlan requires d to be recorded at window win and to list exactly
// want for every access.
func checkPlan(t *testing.T, d *MemDeps, win int, want [][]uint8) {
	t.Helper()
	if d == nil {
		t.Fatal("no plan recorded")
	}
	if d.Window() != win || d.Len() != len(want) {
		t.Fatalf("plan covers %d accesses at window %d, want %d at %d", d.Len(), d.Window(), len(want), win)
	}
	for k := range want {
		if got := d.Conflicts(k); !slices.Equal(got, want[k]) {
			t.Fatalf("access %d: plan lists %v, linear scan %v", k, got, want[k])
		}
	}
}

// TestMemDepsMatchesLinearScan records plans of random access
// sequences, with a third of the loads skipping their Dependence check, at
// windows around the default, the OOOVA-128 size and the scan bound, and
// requires each to equal the linear scan at the queue's window. Under the
// conflict bound a queue keeps its plan exactly while no prefix of the
// sequence averages more than maxPlanConflicts conflicts.
func TestMemDepsMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		accs := randomAccesses(r, []int{0, 1, 2, 255, 256, 257, 700}[r.Intn(7)])
		skip := func(k int) bool { return k%3 == 0 }
		for _, slots := range []int{1, 2, 16, 128, 256, 300} {
			win := min(slots, maxScan)
			want := linearDeps(accs, win)
			bounded := recordPlan(slots, accs, skip)
			dense, total := false, 0
			for k, w := range want {
				total += len(w)
				dense = dense || total > maxPlanConflicts*(k+1)
			}
			switch {
			case dense && bounded != nil:
				t.Fatalf("seed %d, %d slots: a prefix averages over %d conflicts, yet a plan", seed, slots, maxPlanConflicts)
			case !dense:
				checkPlan(t, bounded, win, want)
			}
			func() {
				defer liftPlanBound()()
				checkPlan(t, recordPlan(slots, accs, skip), win, want)
			}()
		}
	}
}

// TestMemDepsBoundsDensePlans checks that a queue whose accesses all
// conflict stops recording: its plan's memory stays bounded, and it
// records none.
func TestMemDepsBoundsDensePlans(t *testing.T) {
	accs := make([]access, 1000)
	for i := range accs {
		accs[i] = access{start: 64, end: 127, store: true}
	}
	if d := recordPlan(DefaultSlots, accs, nil); d != nil {
		t.Fatalf("plan of %d stores to one range recorded; want none past %d conflicts each", len(accs), maxPlanConflicts)
	}
}

// TestMemQueueRecordsFromResetOnly checks which queues record a plan: one
// Reset without a plan, or with one narrower than its window. A queue
// never Reset, one following a plan and one restored from a snapshot
// record none.
func TestMemQueueRecordsFromResetOnly(t *testing.T) {
	accs := randomAccesses(rand.New(rand.NewSource(3)), 300)
	run := func(q *MemQueue) *MemDeps {
		for k, a := range accs {
			q.ConflictConstraint(a.start, a.end, a.store)
			q.Record(a.start, a.end, a.store, int64(k), int64(k)+1)
		}
		return q.Recorded()
	}
	defer liftPlanBound()()
	narrow := recordPlan(16, accs, nil)
	if d := run(NewMemQueue(16)); d != nil {
		t.Error("a queue never Reset recorded a plan")
	}
	following := NewMemQueue(16)
	following.Follow(narrow)
	following.Reset()
	if d := run(following); d != nil {
		t.Error("a queue following a plan recorded one")
	}
	wide := NewMemQueue(128)
	wide.Follow(narrow)
	wide.Reset()
	checkPlan(t, run(wide), 128, linearDeps(accs, 128))
	restored := NewMemQueue(16)
	restored.Reset()
	if err := restored.Restore(NewMemQueue(16).Snapshot()); err != nil {
		t.Fatal(err)
	}
	if d := run(restored); d != nil {
		t.Error("a restored queue recorded a plan")
	}
}

// TestMemQueueFollowingPlanMatchesIndex drives a queue following a
// recorded plan and one finding conflicts through its range index with the
// same random accesses, at every window from 1 to 256 entries, and
// requires the same constraint for every access, across snapshot/restore
// round trips into fresh queues. The plan is recorded at the widest
// window, so the narrower queues skip the entries it lists from further
// back. A restore with more entries than the plan covers fails.
func TestMemQueueFollowingPlanMatchesIndex(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	accs := randomAccesses(r, 600)
	defer liftPlanBound()()
	plan := recordPlan(maxScan, accs, nil)
	checkPlan(t, plan, maxScan, linearDeps(accs, maxScan))
	for slots := 1; slots <= maxScan; slots++ {
		planned, indexed := NewMemQueue(slots), NewMemQueue(slots)
		planned.Follow(plan)
		for i, a := range accs {
			got, want := planned.ConflictConstraint(a.start, a.end, a.store), indexed.ConflictConstraint(a.start, a.end, a.store)
			if got != want {
				t.Fatalf("%d slots, access %d: ConflictConstraint = %d following the plan, %d from the index", slots, i, got, want)
			}
			busStart := int64(i)
			busEnd := busStart + 1 + int64(r.Intn(50))
			planned.Record(a.start, a.end, a.store, busStart, busEnd)
			indexed.Record(a.start, a.end, a.store, busStart, busEnd)
			if r.Intn(100) == 0 {
				st := planned.Snapshot()
				planned = NewMemQueue(slots)
				planned.Follow(plan)
				if err := planned.Restore(st); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := planned.Snapshot()
		st.N++
		fresh := NewMemQueue(slots)
		fresh.Follow(plan)
		if err := fresh.Restore(st); err == nil {
			t.Fatalf("%d slots: restore of %d entries into a plan of %d accepted", slots, st.N, plan.Len())
		}
	}
}
