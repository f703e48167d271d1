package rob

import "testing"

// TestRestoreResumesOccupancy restores a mid-run buffer into a fresh one and
// checks that commits and occupancy continue identically.
func TestRestoreResumesOccupancy(t *testing.T) {
	a := New(8, 2)
	for i := int64(0); i < 11; i++ {
		a.Commit(3 * i)
	}
	a.Occupied(10)
	b := New(8, 2)
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := int64(11); i < 20; i++ {
		now := 3*i - 6
		if ga, gb := a.Occupied(now), b.Occupied(now); ga != gb {
			t.Fatalf("Occupied(%d): original %d, restored %d", now, ga, gb)
		}
		if ca, cb := a.Commit(3*i), b.Commit(3*i); ca != cb {
			t.Fatalf("commit %d: original %d, restored %d", i, ca, cb)
		}
	}
}

// TestRestoreRejectsMalformedState checks every malformed state is an error,
// never a panic on a later commit or occupancy sample.
func TestRestoreRejectsMalformedState(t *testing.T) {
	cases := []struct {
		name string
		edit func(*State)
	}{
		{"commit width mismatch", func(st *State) { st.Recent = append(st.Recent, 0) }},
		{"commit ring index past the width", func(st *State) { st.RI = 4 }},
		{"negative commit ring index", func(st *State) { st.RI = -1 }},
		{"commit ring over-filled", func(st *State) { st.Filled = 5 }},
		{"window of another size", func(st *State) { st.Window.N, st.Window.Leave = 32, make([]int64, 32) }},
		{"window count past capacity", func(st *State) { st.Window.Count = 65 }},
	}
	for _, c := range cases {
		r := New(DefaultSize, DefaultWidth)
		r.Commit(5)
		st := r.Snapshot()
		c.edit(&st)
		if err := New(DefaultSize, DefaultWidth).Restore(st); err == nil {
			t.Errorf("%s: Restore accepted the state", c.name)
		}
	}
}
