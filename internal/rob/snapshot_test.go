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
		{"commit ring of another length", func(st *State) { st.Ring = append(st.Ring, 0) }},
		{"commit ring index past the ring", func(st *State) { st.RI = len(st.Ring) }},
		{"negative commit ring index", func(st *State) { st.RI = -1 }},
		{"commit ring over-filled", func(st *State) { st.Count = len(st.Ring) + 1 }},
		{"negative commit count", func(st *State) { st.Count = -1 }},
		{"ring index not matching the count", func(st *State) { st.RI = st.Count + 1 }},
	}
	for _, c := range cases {
		r := New(DefaultSize, DefaultWidth)
		r.Commit(5)
		r.Commit(9)
		st := r.Snapshot()
		c.edit(&st)
		if err := New(DefaultSize, DefaultWidth).Restore(st); err == nil {
			t.Errorf("%s: Restore accepted the state", c.name)
		}
	}
}
