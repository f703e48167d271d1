package metrics

import "testing"

func TestOccHistBucketMapping(t *testing.T) {
	var h OccHist
	const capacity = 64
	tab := NewOccTable(capacity)
	// Empty, half-full and full occupancy land in the first, middle and
	// last buckets respectively.
	h.Observe(tab, 0)
	h.Observe(tab, capacity/2)
	h.Observe(tab, capacity)
	if h.Cap != capacity {
		t.Errorf("Cap = %d, want %d", h.Cap, capacity)
	}
	if h.Counts[0] != 1 {
		t.Errorf("empty sample not in bucket 0: %v", h.Counts)
	}
	if h.Counts[(OccBuckets-1)/2] != 1 {
		t.Errorf("half-full sample not in the middle bucket: %v", h.Counts)
	}
	if h.Counts[OccBuckets-1] != 1 {
		t.Errorf("full sample not in the last bucket: %v", h.Counts)
	}
	if h.Samples() != 3 {
		t.Errorf("Samples = %d, want 3", h.Samples())
	}
}

func TestOccHistClampsAndGuards(t *testing.T) {
	var h OccHist
	h.Observe(NewOccTable(0), 5)  // zero capacity: ignored, no panic
	h.Observe(NewOccTable(-1), 0) // nonsense: ignored
	if h.Samples() != 0 {
		t.Errorf("guarded observes counted: %v", h.Counts)
	}
	tab := NewOccTable(8)
	h.Observe(tab, 100) // over-capacity clamps into the last bucket
	h.Observe(tab, -3)  // negative clamps into the first
	if h.Counts[OccBuckets-1] != 1 || h.Counts[0] != 1 {
		t.Errorf("clamping broken: %v", h.Counts)
	}
}

// TestOccHistEveryOccupancyLands sweeps every occupancy of a small
// structure and asserts the samples distribute over all buckets without
// loss — the total always equals the number of observes, and the bucket
// index is monotone in the occupancy.
func TestOccHistEveryOccupancyLands(t *testing.T) {
	const capacity = 16
	var h OccHist
	tab := NewOccTable(capacity)
	prev := 0
	for occ := 0; occ <= capacity; occ++ {
		before := h
		h.Observe(tab, occ)
		// Find the bucket this observe incremented.
		hit := -1
		for i := range h.Counts {
			if h.Counts[i] != before.Counts[i] {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Fatalf("occ %d: no bucket incremented", occ)
		}
		if hit < prev {
			t.Errorf("occ %d: bucket %d below previous %d — mapping not monotone", occ, hit, prev)
		}
		prev = hit
	}
	if h.Samples() != capacity+1 {
		t.Errorf("Samples = %d, want %d", h.Samples(), capacity+1)
	}
}

// TestOccTableMatchesDivision checks the bucket table against the clamped
// division it replaces, for every capacity 1..1024 and every occupancy
// 0..capacity.
func TestOccTableMatchesDivision(t *testing.T) {
	for capacity := 1; capacity <= 1024; capacity++ {
		tab := NewOccTable(capacity)
		if len(tab) != capacity+1 {
			t.Fatalf("capacity %d: table of %d entries", capacity, len(tab))
		}
		for occ := 0; occ <= capacity; occ++ {
			want := min(max(occ*(OccBuckets-1)/capacity, 0), OccBuckets-1)
			if int(tab[occ]) != want {
				t.Fatalf("capacity %d, occupancy %d: bucket %d, want %d", capacity, occ, tab[occ], want)
			}
		}
	}
}

func TestStallBreakdownAggregates(t *testing.T) {
	s := StallBreakdown{
		ROBFull: 10,
		IQFullA: 1, IQFullS: 2, IQFullV: 3, IQFullM: 4,
		NoPhysA: 5, NoPhysS: 6, NoPhysV: 7, NoPhysM: 8,
		PortConflict: 20, MemBusBusy: 30,
	}
	if got := s.IQFull(); got != 10 {
		t.Errorf("IQFull = %d, want 10", got)
	}
	if got := s.NoPhysReg(); got != 26 {
		t.Errorf("NoPhysReg = %d, want 26", got)
	}
	if got := s.Total(); got != 10+10+26+20+30 {
		t.Errorf("Total = %d, want %d", got, 10+10+26+20+30)
	}
}
