package rob

import (
	"fmt"
	"math"
)

// State is the serialisable mid-run state of a ROB (see package sched on
// checkpointing). Size, width, the occupancy cursor and the last commit
// (the newest in the ring) are not state.
type State struct {
	Ring  []int64 // the commit ring, max(size, width) entries
	Count int     // commits in the ring
	RI    int     // ring index of the next commit
}

// Snapshot captures the ROB state (deep copy).
func (r *ROB) Snapshot() State {
	return State{
		Ring:  append([]int64(nil), r.ring...),
		Count: r.count,
		RI:    r.ri,
	}
}

// Restore replaces the ROB state with st. A ring of another length, or a
// count or ring index no run of this buffer leaves, is an error and leaves
// the ROB unchanged.
func (r *ROB) Restore(st State) error {
	n := len(r.ring)
	switch {
	case len(st.Ring) != n:
		return fmt.Errorf("rob: commit ring of %d entries, size %d and width %d want %d", len(st.Ring), r.size, r.width, n)
	case st.Count < 0 || st.Count > n:
		return fmt.Errorf("rob: commit count %d outside [0,%d]", st.Count, n)
	case st.RI < 0 || st.RI >= n:
		return fmt.Errorf("rob: commit ring index %d outside [0,%d)", st.RI, n)
	case st.Count < n && st.RI != st.Count:
		return fmt.Errorf("rob: commit ring index %d with %d of %d commits", st.RI, st.Count, n)
	}
	copy(r.ring, st.Ring)
	r.count, r.ri, r.last = st.Count, st.RI, 0
	if r.count > 0 {
		r.last = r.ring[r.back(1)]
	}
	r.recount(math.MinInt64)
	return nil
}
