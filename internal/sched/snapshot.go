package sched

import "fmt"

// Snapshot/Restore support for checkpointing (ooosim/refsim checkpoints
// serialise the full allocator state mid-run and revive it, possibly in a
// different process, so a preempted simulation resumes instead of
// restarting). State types carry only exported fields so encoding/gob can
// round-trip them; Snapshot deep-copies the interval storage because the
// allocator keeps mutating it after the snapshot is taken.

// MonotonicState is the serialisable state of a Monotonic allocator.
type MonotonicState struct {
	NextFree int64
	IV       []Interval
}

// Snapshot captures the allocator state. The returned state shares nothing
// with the allocator.
func (m *Monotonic) Snapshot() MonotonicState {
	return MonotonicState{
		NextFree: m.nextFree,
		IV:       append([]Interval(nil), m.iv...),
	}
}

// Restore replaces the allocator state with st, reusing storage when it
// fits. The intervals must be non-empty, sorted and disjoint, and NextFree
// the end of the last one, as Allocate keeps them; with every interval
// dropped, NextFree only must not be negative. Anything else is an error and
// leaves the allocator unchanged.
func (m *Monotonic) Restore(st MonotonicState) error {
	if err := checkIntervals(st.IV); err != nil {
		return fmt.Errorf("monotonic %w", err)
	}
	if n := len(st.IV); n > 0 && st.NextFree != st.IV[n-1].End {
		return fmt.Errorf("monotonic next free cycle %d, last interval ends at %d", st.NextFree, st.IV[n-1].End)
	}
	if st.NextFree < 0 {
		return fmt.Errorf("monotonic next free cycle %d is negative", st.NextFree)
	}
	m.nextFree = st.NextFree
	m.iv = append(m.iv[:0], st.IV...)
	return nil
}

// GapState is the serialisable state of a Gap allocator.
type GapState struct {
	IV []Interval
}

// Snapshot captures the allocator state (deep copy).
func (g *Gap) Snapshot() GapState {
	return GapState{IV: append([]Interval(nil), g.iv...)}
}

// Restore replaces the allocator state with st, reusing storage when it
// fits. The intervals must be non-empty, sorted and disjoint, as Allocate
// keeps them; anything else is an error and leaves the allocator unchanged.
func (g *Gap) Restore(st GapState) error {
	if err := checkIntervals(st.IV); err != nil {
		return fmt.Errorf("gap %w", err)
	}
	g.iv = append(g.iv[:0], st.IV...)
	return nil
}

// checkIntervals reports the first interval of iv that is empty or does not
// start at or after the end of the one before it.
func checkIntervals(iv []Interval) error {
	for i, v := range iv {
		if v.Start >= v.End {
			return fmt.Errorf("interval %d [%d,%d) is empty", i, v.Start, v.End)
		}
		if i > 0 && v.Start < iv[i-1].End {
			return fmt.Errorf("interval %d [%d,%d) overlaps or precedes interval %d ending at %d",
				i, v.Start, v.End, i-1, iv[i-1].End)
		}
	}
	return nil
}

// RingWindowState is the serialisable state of a RingWindow, whose capacity
// is len(Leave).
type RingWindowState struct {
	Leave []int64
	Next  int
	Count int
}

// Snapshot captures the window state (deep copy).
func (w *RingWindow) Snapshot() RingWindowState {
	return RingWindowState{
		Leave: append([]int64(nil), w.leave...),
		Next:  w.next,
		Count: w.count,
	}
}

// Restore replaces the window state with st and rebuilds the derived
// occupancy state from it. A checkpoint is only restored into a window of
// the same capacity, so a capacity mismatch or an out-of-range ring index
// is an error and leaves the window unchanged.
func (w *RingWindow) Restore(st RingWindowState) error {
	switch {
	case len(st.Leave) != w.n:
		return fmt.Errorf("window capacity %d, configuration wants %d", len(st.Leave), w.n)
	case st.Count < 0 || st.Count > w.n:
		return fmt.Errorf("window count %d outside [0,%d]", st.Count, w.n)
	case w.n > 0 && (st.Next < 0 || st.Next >= w.n), w.n == 0 && st.Next != 0:
		return fmt.Errorf("window ring index %d outside [0,%d)", st.Next, w.n)
	}
	copy(w.leave, st.Leave)
	w.next, w.count = st.Next, st.Count
	w.rebuild(0)
	return nil
}
