package vregfile

import "fmt"

// Snapshot/Restore support for mid-run checkpointing (see package sched).

// BankedFileState is the serialisable state of a BankedFile.
type BankedFileState struct {
	ReadFree  [][ReadPortsPerBank]int64
	WriteFree []int64
	Conflicts int64
}

// Snapshot captures the banked file's port state (deep copy; the claims
// scratch is per-call and carries no state).
func (f *BankedFile) Snapshot() BankedFileState {
	return BankedFileState{
		ReadFree:  append([][ReadPortsPerBank]int64(nil), f.readFree...),
		WriteFree: append([]int64(nil), f.writeFree...),
		Conflicts: f.conflicts,
	}
}

// Restore replaces the banked file's port state with st. A state sized for
// a different bank count is an error, and leaves the file unchanged.
func (f *BankedFile) Restore(st BankedFileState) error {
	if len(st.ReadFree) != len(f.readFree) || len(st.WriteFree) != len(f.writeFree) {
		return fmt.Errorf("banked port state sized %d/%d, file has %d/%d banks",
			len(st.ReadFree), len(st.WriteFree), len(f.readFree), len(f.writeFree))
	}
	copy(f.readFree, st.ReadFree)
	copy(f.writeFree, st.WriteFree)
	f.conflicts = st.Conflicts
	return nil
}

// FlatFileState is the serialisable state of a FlatFile.
type FlatFileState struct {
	ReadFree  []int64
	WriteFree []int64
	Conflicts int64
}

// Snapshot captures the flat file's port state (deep copy).
func (f *FlatFile) Snapshot() FlatFileState {
	return FlatFileState{
		ReadFree:  append([]int64(nil), f.readFree...),
		WriteFree: append([]int64(nil), f.writeFree...),
		Conflicts: f.conflicts,
	}
}

// Restore replaces the flat file's port state with st. A state sized for a
// different register count is an error, and leaves the file unchanged.
func (f *FlatFile) Restore(st FlatFileState) error {
	if len(st.ReadFree) != len(f.readFree) || len(st.WriteFree) != len(f.writeFree) {
		return fmt.Errorf("flat port state sized %d/%d, file has %d/%d registers",
			len(st.ReadFree), len(st.WriteFree), len(f.readFree), len(f.writeFree))
	}
	copy(f.readFree, st.ReadFree)
	copy(f.writeFree, st.WriteFree)
	f.conflicts = st.Conflicts
	return nil
}
