package rob

import (
	"fmt"

	"oovec/internal/sched"
)

// State is the serialisable mid-run state of a ROB (see package sched on
// checkpointing). Size and width are capacity parameters, not state.
type State struct {
	Window sched.RingWindowState
	Recent []int64
	RI     int
	Filled int
	Last   int64
}

// Snapshot captures the ROB state (deep copy).
func (r *ROB) Snapshot() State {
	return State{
		Window: r.window.Snapshot(),
		Recent: append([]int64(nil), r.recent...),
		RI:     r.ri,
		Filled: r.filled,
		Last:   r.last,
	}
}

// Restore replaces the ROB state with st. A state taken from a buffer of a
// different size or commit width, or with an out-of-range commit ring index,
// is an error.
func (r *ROB) Restore(st State) error {
	switch {
	case len(st.Recent) != r.width:
		return fmt.Errorf("rob: %d recent commit times for commit width %d", len(st.Recent), r.width)
	case st.RI < 0 || st.RI >= r.width:
		return fmt.Errorf("rob: commit ring index %d outside [0,%d)", st.RI, r.width)
	case st.Filled < 0 || st.Filled > r.width:
		return fmt.Errorf("rob: commit ring fill %d outside [0,%d]", st.Filled, r.width)
	}
	if err := r.window.Restore(st.Window); err != nil {
		return fmt.Errorf("rob: %w", err)
	}
	copy(r.recent, st.Recent)
	r.ri, r.filled, r.last = st.RI, st.Filled, st.Last
	return nil
}
