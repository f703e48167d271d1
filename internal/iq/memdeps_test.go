package iq

import (
	"math/rand"
	"slices"
	"testing"
)

// randomAccesses returns n accesses of the shapes the Range stage
// produces, and inverted ones it does not: small crowded ranges, ranges at
// address 0, block straddles, gather-sized ranges, distant ranges.
func randomAccesses(r *rand.Rand, n int) []Access {
	accs := make([]Access, n)
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
		accs[i] = Access{Start: start, End: end, Store: r.Intn(3) == 0}
	}
	return accs
}

// linearDeps is the reference plan: for each access, a scan of the
// previous maxScan, oldest first, keeping those whose ranges overlap with a
// store among the two.
func linearDeps(accs []Access) [][]uint8 {
	deps := make([][]uint8, len(accs))
	for k, a := range accs {
		for j := max(k-maxScan, 0); j < k; j++ {
			e := accs[j]
			if (a.Store || e.Store) && e.Start <= a.End && a.Start <= e.End {
				deps[k] = append(deps[k], uint8(k-1-j))
			}
		}
	}
	return deps
}

// checkPlan requires d to list exactly want for every access.
func checkPlan(t *testing.T, d *MemDeps, want [][]uint8) {
	t.Helper()
	if d.Len() != len(want) {
		t.Fatalf("plan covers %d accesses, want %d", d.Len(), len(want))
	}
	for k := range want {
		if got := d.Conflicts(k); !slices.Equal(got, want[k]) {
			t.Fatalf("access %d: plan lists %v, linear scan %v", k, got, want[k])
		}
	}
}

// TestMemDepsMatchesLinearScan builds plans from random access sequences
// and requires each to equal the linear scan, access by access.
// BuildMemDeps returns either that plan or, past its conflict bound, none.
func TestMemDepsMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		accs := randomAccesses(r, []int{0, 1, 2, 255, 256, 257, 700}[r.Intn(7)])
		want := linearDeps(accs)
		checkPlan(t, buildMemDeps(len(accs), slices.Values(accs), 1<<30), want)
		total := 0
		for _, w := range want {
			total += len(w)
		}
		switch d := BuildMemDeps(len(accs), slices.Values(accs)); {
		case total > maxPlanConflicts*len(accs) && d != nil:
			t.Fatalf("seed %d: %d conflicts over %d accesses, yet a plan", seed, total, len(accs))
		case total <= maxPlanConflicts*len(accs):
			checkPlan(t, d, want)
		}
	}
}

// TestMemDepsBoundsDensePlans checks that a sequence whose accesses all
// conflict gets no plan: its runs use the range index, and the plan's
// memory stays bounded.
func TestMemDepsBoundsDensePlans(t *testing.T) {
	accs := make([]Access, 1000)
	for i := range accs {
		accs[i] = Access{Start: 64, End: 127, Store: true}
	}
	if d := BuildMemDeps(len(accs), slices.Values(accs)); d != nil {
		t.Fatalf("plan of %d stores to one range built; want none past %d conflicts each", len(accs), maxPlanConflicts)
	}
}

// TestMemQueueFollowingPlanMatchesIndex drives a queue following a plan
// and one finding conflicts through its range index with the same random
// accesses, at every window from 1 to 256 entries, and requires the same
// constraint for every access, across snapshot/restore round trips into
// fresh queues. A restore with more entries than the plan covers fails.
func TestMemQueueFollowingPlanMatchesIndex(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	accs := randomAccesses(r, 600)
	plan := buildMemDeps(len(accs), slices.Values(accs), 1<<30)
	for slots := 1; slots <= maxScan; slots++ {
		planned, indexed := NewMemQueue(slots), NewMemQueue(slots)
		planned.Follow(plan)
		for i, a := range accs {
			got, want := planned.ConflictConstraint(a.Start, a.End, a.Store), indexed.ConflictConstraint(a.Start, a.End, a.Store)
			if got != want {
				t.Fatalf("%d slots, access %d: ConflictConstraint = %d following the plan, %d from the index", slots, i, got, want)
			}
			busStart := int64(i)
			busEnd := busStart + 1 + int64(r.Intn(50))
			planned.Record(a.Start, a.End, a.Store, busStart, busEnd)
			indexed.Record(a.Start, a.End, a.Store, busStart, busEnd)
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
