package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// busy returns the total length of iv.
func busy(iv []Interval) int64 {
	var n int64
	for _, v := range iv {
		n += v.End - v.Start
	}
	return n
}

func TestMonotonicSerialises(t *testing.T) {
	m := NewMonotonic()
	if got := m.Allocate(0, 10); got != 0 {
		t.Errorf("first = %d", got)
	}
	if got := m.Allocate(5, 10); got != 10 {
		t.Errorf("second = %d, want 10", got)
	}
	if got := m.Allocate(100, 5); got != 100 {
		t.Errorf("third = %d, want 100", got)
	}
	if busy(m.Intervals()) != 25 {
		t.Errorf("busy = %d", busy(m.Intervals()))
	}
	if m.NextFree() != 105 {
		t.Errorf("nextFree = %d", m.NextFree())
	}
	m.Reset()
	if busy(m.Intervals()) != 0 || len(m.Intervals()) != 0 || m.NextFree() != 0 {
		t.Error("reset did not clear")
	}
}

func TestMonotonicMergesAdjacentIntervals(t *testing.T) {
	m := NewMonotonic()
	m.Allocate(0, 10)
	m.Allocate(0, 10) // lands at 10, adjacent
	ivs := m.Intervals()
	if len(ivs) != 1 || ivs[0] != (Interval{0, 20}) {
		t.Errorf("intervals = %v, want single [0,20)", ivs)
	}
}

func TestGapBackfills(t *testing.T) {
	g := NewGap()
	if got := g.Allocate(100, 10); got != 100 {
		t.Errorf("first = %d", got)
	}
	// A later request that is ready earlier fits before the booked interval.
	if got := g.Allocate(0, 50); got != 0 {
		t.Errorf("backfill = %d, want 0", got)
	}
	// Too big for the hole [50,100): goes after.
	if got := g.Allocate(0, 60); got != 110 {
		t.Errorf("oversized = %d, want 110", got)
	}
	// Exactly fits the hole [50,100).
	if got := g.Allocate(0, 50); got != 50 {
		t.Errorf("exact fit = %d, want 50", got)
	}
}

func TestGapRespectsEarliest(t *testing.T) {
	g := NewGap()
	g.Allocate(10, 10) // [10,20)
	if got := g.Allocate(5, 5); got != 5 {
		t.Errorf("hole before = %d, want 5", got)
	}
	if got := g.Allocate(12, 5); got != 20 {
		t.Errorf("mid-interval request = %d, want 20", got)
	}
}

func TestGapMerging(t *testing.T) {
	g := NewGap()
	g.Allocate(0, 10)  // [0,10)
	g.Allocate(20, 10) // [20,30)
	g.Allocate(10, 10) // exactly fills the hole: all three merge
	ivs := g.Intervals()
	if len(ivs) != 1 || ivs[0] != (Interval{0, 30}) {
		t.Errorf("intervals = %v, want single [0,30)", ivs)
	}
	if busy(g.Intervals()) != 30 {
		t.Errorf("busy = %d", busy(g.Intervals()))
	}
	g.Reset()
	if busy(g.Intervals()) != 0 || len(g.Intervals()) != 0 {
		t.Error("reset did not clear")
	}
}

func TestGapZeroOrNegativeDur(t *testing.T) {
	g := NewGap()
	start := g.Allocate(5, 0) // clamps to 1
	if start != 5 {
		t.Errorf("start = %d", start)
	}
	if busy(g.Intervals()) != 1 {
		t.Errorf("busy = %d, want 1", busy(g.Intervals()))
	}
}

func TestPropertyGapIntervalsDisjointSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGap()
		var total int64
		for i := 0; i < 400; i++ {
			dur := int64(1 + r.Intn(16))
			g.Allocate(int64(r.Intn(2000)), dur)
			total += dur
		}
		ivs := g.Intervals()
		var sum int64
		for i, iv := range ivs {
			if iv.End <= iv.Start {
				return false
			}
			if i > 0 && ivs[i-1].End >= iv.Start {
				return false // overlapping or unmerged-adjacent
			}
			sum += iv.End - iv.Start
		}
		return sum == total && busy(g.Intervals()) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGapNeverBeforeEarliest(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGap()
		for i := 0; i < 300; i++ {
			earliest := int64(r.Intn(1000))
			start := g.Allocate(earliest, int64(1+r.Intn(8)))
			if start < earliest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMonotonicEqualsGapWhenRequestsOrdered(t *testing.T) {
	// When each request's earliest time is at or past the previous
	// reservation's end, backfilling never helps, so both disciplines agree.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, g := NewMonotonic(), NewGap()
		clock := int64(0)
		for i := 0; i < 200; i++ {
			clock += int64(r.Intn(5))
			dur := int64(1 + r.Intn(8))
			sm := m.Allocate(clock, dur)
			sg := g.Allocate(clock, dur)
			if sm != sg {
				return false
			}
			clock = sm + dur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRingWindowCapacity(t *testing.T) {
	w := NewRingWindow(2)
	if w.FreeAt() != 0 {
		t.Error("empty window should admit immediately")
	}
	w.Admit(100)
	if w.FreeAt() != 0 {
		t.Error("one of two slots used; should admit immediately")
	}
	w.Admit(50)
	if got := w.FreeAt(); got != 100 {
		t.Errorf("full window FreeAt = %d, want departure of oldest (100)", got)
	}
	w.Admit(200) // replaces oldest
	if got := w.FreeAt(); got != 50 {
		t.Errorf("FreeAt = %d, want 50", got)
	}
}

func TestRingWindowUnbounded(t *testing.T) {
	w := NewRingWindow(0)
	for i := 0; i < 100; i++ {
		w.Admit(int64(i))
	}
	if w.FreeAt() != 0 {
		t.Error("unbounded window must never block")
	}
}

func TestRingWindowReset(t *testing.T) {
	w := NewRingWindow(1)
	w.Admit(99)
	w.Reset()
	if w.FreeAt() != 0 {
		t.Error("reset window should admit immediately")
	}
}

// TestPropertyRingWindowOccupied compares Occupied with a naive count of
// the departure times of the last min(admitted, n) occupants, across ring
// wrap-around, Reset, and the unbounded (n == 0) window.
func TestPropertyRingWindowOccupied(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := []int{0, 1, 3, 16, 64, 128}[r.Intn(6)]
		w := NewRingWindow(n)
		var admitted []int64 // departures since the last Reset, oldest first
		for step := 0; step < 400; step++ {
			switch k := r.Intn(50); {
			case k == 0:
				w.Reset()
				admitted = admitted[:0]
			case k < 30:
				d := int64(r.Intn(1000))
				w.Admit(d)
				admitted = append(admitted, d)
			default:
				now := int64(r.Intn(1100)) - 50
				want := 0
				if n > 0 {
					for _, d := range admitted[max(len(admitted)-n, 0):] {
						if d > now {
							want++
						}
					}
				}
				if got := w.Occupied(now); got != want {
					t.Logf("seed %d n %d step %d: Occupied(%d) = %d, want %d", seed, n, step, now, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
