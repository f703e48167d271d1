package sched

import (
	"slices"
	"strings"
	"testing"
)

// scanOccupied is the reference occupancy count: a linear scan over the
// window's ring, counting the tracked occupants that depart after now.
func scanOccupied(st RingWindowState, now int64) int {
	occ := 0
	for _, l := range st.Leave[:st.Count] {
		if l > now {
			occ++
		}
	}
	return occ
}

// scanFindHole is the reference hole search: a walk over the whole
// interval list from the first interval.
func scanFindHole(iv []Interval, earliest, dur int64) (int64, int) {
	i := 0
	for i < len(iv) && iv[i].End <= earliest {
		i++
	}
	start := earliest
	for ; i < len(iv); i++ {
		if start+dur <= iv[i].Start {
			break
		}
		start = max(start, iv[i].End)
	}
	return start, i
}

// FuzzWindowAndGap decodes the input into a sequence of RingWindow and Gap
// operations — admissions, occupancy queries (some at an earlier cycle than
// the previous query), hole searches and bookings at nearly monotone and at
// far earlier cycles, port bookings from the window, Snapshot/Restore round
// trips and Resets — and checks every occupancy count, every hole and every
// port booking against the linear references.
func FuzzWindowAndGap(f *testing.F) {
	f.Add([]byte{1, 0, 10, 0, 20, 2, 1, 2, 3, 3, 9, 2, 0})
	f.Add([]byte{5, 0, 63, 1, 40, 2, 2, 0, 5, 6, 0, 2, 1, 3, 60, 2, 3})
	f.Add([]byte{7, 4, 10, 5, 3, 5, 250, 4, 2, 5, 17, 6, 0, 4, 245, 5, 1})
	f.Add([]byte{6, 0, 9, 0, 8, 0, 7, 0, 6, 2, 0, 7, 0, 0, 50, 2, 63, 3, 63, 2, 1})
	f.Add([]byte{4, 7, 9, 7, 9, 7, 9, 2, 3, 7, 10, 7, 9, 3, 30, 7, 1, 6, 0, 7, 9, 2, 1, 7, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := []int{0, 1, 2, 3, 4, 16, 64, 128}[data[0]%8]
		w, g := NewRingWindow(n), NewGap()
		var now, gnow int64
		for k := 1; k+1 < len(data); k += 2 {
			op, arg := data[k]%8, int64(data[k+1])
			switch op {
			case 0, 1: // admit, sometimes already departed
				w.Admit(now + arg%64 - 8)
			case 2, 3: // query forwards, or backwards for op 3
				if op == 2 {
					now += arg % 4
				} else {
					now -= arg % 64
				}
				if got, want := w.Occupied(now), scanOccupied(w.Snapshot(), now); got != want {
					t.Fatalf("op %d: Occupied(%d) = %d, linear scan %d", k, now, got, want)
				}
			case 4, 5: // hole search, nearly monotone or far back for arg >= 240
				earliest := gnow + arg%32 - 8
				if arg >= 240 {
					earliest = arg - 240
				}
				dur := 1 + arg%5
				wantStart, wantIdx := scanFindHole(g.Intervals(), earliest, dur)
				start, idx := g.findHole(earliest, dur)
				if start != wantStart || idx != wantIdx {
					t.Fatalf("op %d: findHole(%d, %d) = (%d, %d), linear scan (%d, %d)",
						k, earliest, dur, start, idx, wantStart, wantIdx)
				}
				if op == 5 {
					if got := g.Allocate(earliest, dur); got != wantStart {
						t.Fatalf("op %d: Allocate(%d, %d) = %d, want %d", k, earliest, dur, got, wantStart)
					}
					gnow++
				}
			case 6: // checkpoint round trip into fresh structures
				w2, g2 := NewRingWindow(n), NewGap()
				if err := w2.Restore(w.Snapshot()); err != nil {
					t.Fatalf("op %d: window restore: %v", k, err)
				}
				if err := g2.Restore(g.Snapshot()); err != nil {
					t.Fatalf("op %d: gap restore: %v", k, err)
				}
				w, g = w2, g2
			case 7: // reset, or for arg%4 != 0 a port booking from the window
				if arg%4 == 0 {
					w.Reset()
					g.Reset()
					gnow = 0
					break
				}
				at := now + arg%64 - 8
				st := w.Snapshot()
				want := at
				for slices.Contains(st.Leave[:st.Count], want) {
					want++
				}
				if got := w.AdmitFirstFree(at); got != want {
					t.Fatalf("op %d: AdmitFirstFree(%d) = %d, ring scan %d", k, at, got, want)
				}
			}
		}
	})
}

// TestRestoreRejectsMalformedState feeds states no window or allocator can
// produce; each must be an error that leaves the structure usable.
func TestRestoreRejectsMalformedState(t *testing.T) {
	good := func() RingWindowState {
		w := NewRingWindow(4)
		w.Admit(7)
		return w.Snapshot()
	}
	windows := []struct {
		name string
		edit func(*RingWindowState)
		want string
	}{
		{"capacity mismatch", func(st *RingWindowState) { st.Leave = make([]int64, 8) }, "capacity"},
		{"short ring", func(st *RingWindowState) { st.Leave = st.Leave[:2] }, "capacity"},
		{"over-long count", func(st *RingWindowState) { st.Count = 5 }, "count"},
		{"negative count", func(st *RingWindowState) { st.Count = -1 }, "count"},
		{"ring index past the end", func(st *RingWindowState) { st.Next = 4 }, "ring index"},
		{"negative ring index", func(st *RingWindowState) { st.Next = -1 }, "ring index"},
	}
	for _, c := range windows {
		st := good()
		c.edit(&st)
		w := NewRingWindow(4)
		if err := w.Restore(st); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("window %s: Restore error %v, want one mentioning %q", c.name, err, c.want)
		}
		w.Admit(3)
		if got := w.Occupied(0); got != 1 {
			t.Errorf("window %s: Occupied after a rejected Restore = %d, want 1", c.name, got)
		}
	}

	gaps := []struct {
		name string
		iv   []Interval
	}{
		{"empty interval", []Interval{{5, 5}}},
		{"inverted interval", []Interval{{9, 4}}},
		{"unsorted intervals", []Interval{{10, 20}, {0, 5}}},
		{"overlapping intervals", []Interval{{0, 10}, {5, 15}}},
	}
	for _, c := range gaps {
		g := NewGap()
		if err := g.Restore(GapState{IV: c.iv}); err == nil {
			t.Errorf("gap %s: Restore accepted %v", c.name, c.iv)
		}
		if got := g.Allocate(0, 2); got != 0 {
			t.Errorf("gap %s: Allocate after a rejected Restore = %d, want 0", c.name, got)
		}
	}

	monotonics := []struct {
		name string
		st   MonotonicState
	}{
		{"empty interval", MonotonicState{NextFree: 5, IV: []Interval{{5, 5}}}},
		{"unsorted intervals", MonotonicState{NextFree: 5, IV: []Interval{{10, 20}, {0, 5}}}},
		{"next free before the last interval's end", MonotonicState{NextFree: 15, IV: []Interval{{0, 5}, {10, 20}}}},
		{"next free past the last interval's end", MonotonicState{NextFree: 21, IV: []Interval{{0, 5}, {10, 20}}}},
		{"next free without intervals", MonotonicState{NextFree: 3}},
	}
	for _, c := range monotonics {
		m := NewMonotonic()
		if err := m.Restore(c.st); err == nil {
			t.Errorf("monotonic %s: Restore accepted %+v", c.name, c.st)
		}
		if got := m.Allocate(0, 2); got != 0 {
			t.Errorf("monotonic %s: Allocate after a rejected Restore = %d, want 0", c.name, got)
		}
	}
	m := NewMonotonic()
	m.Allocate(3, 4)
	m.Allocate(20, 1)
	if err := NewMonotonic().Restore(m.Snapshot()); err != nil {
		t.Errorf("monotonic: a snapshot restores with %v", err)
	}
}
