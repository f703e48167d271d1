package rename

import (
	"fmt"
	"slices"
)

// Snapshot/Restore support for mid-run checkpointing (see package sched).

// FreeEntry is the exported form of one free-list entry.
type FreeEntry struct {
	Phys    int
	ReadyAt int64
}

// TableState is the serialisable mid-run state of a rename Table. The free
// list is stored in logical (oldest-first) order, normalising the ring
// rotation away: the table's behaviour depends only on the order entries
// pop, not on where the ring happens to start.
type TableState struct {
	Mapping []int
	Refcnt  []int
	Free    []FreeEntry
}

// Snapshot captures the table state (deep copy).
func (t *Table) Snapshot() TableState {
	st := TableState{
		Mapping: append([]int(nil), t.mapping...),
		Refcnt:  append([]int(nil), t.refcnt...),
		Free:    make([]FreeEntry, t.count),
	}
	for i := 0; i < t.count; i++ {
		e := t.free[t.wrap(t.head+i)]
		st.Free[i] = FreeEntry{Phys: e.Phys, ReadyAt: e.ReadyAt}
	}
	return st
}

// Restore replaces the table state with st. The table's structural sizes
// (NumLogical, NumPhysical) are configuration, not state; a state that
// fails check is an error and leaves the table unchanged.
func (t *Table) Restore(st TableState) error {
	if err := t.check(st); err != nil {
		return err
	}
	copy(t.mapping, st.Mapping)
	copy(t.refcnt, st.Refcnt)
	t.head, t.count = 0, 0
	for _, e := range st.Free {
		t.push(freeEntry{Phys: e.Phys, ReadyAt: e.ReadyAt})
	}
	return nil
}

// check returns the first invariant st breaks: sizes other than the
// table's, more free entries than registers, a free entry out of range,
// listed twice or still referenced, a mapping out of range or to a register
// with no reference, a negative refcount, or an unreferenced register
// missing from the free list.
func (t *Table) check(st TableState) error {
	if len(st.Mapping) != t.NumLogical || len(st.Refcnt) != t.NumPhysical || len(st.Free) > t.NumPhysical {
		return fmt.Errorf("rename: %v table state sized %d/%d with %d free, configuration wants %d/%d",
			t.Class, len(st.Mapping), len(st.Refcnt), len(st.Free), t.NumLogical, t.NumPhysical)
	}
	onFree := make([]bool, t.NumPhysical)
	for _, e := range st.Free {
		switch {
		case uint(e.Phys) >= uint(t.NumPhysical):
			return fmt.Errorf("rename: %v free entry %d outside [0,%d)", t.Class, e.Phys, t.NumPhysical)
		case onFree[e.Phys]:
			return fmt.Errorf("rename: %v physical %d on free list twice", t.Class, e.Phys)
		case st.Refcnt[e.Phys] != 0:
			return fmt.Errorf("rename: %v physical %d free but refcount %d", t.Class, e.Phys, st.Refcnt[e.Phys])
		}
		onFree[e.Phys] = true
	}
	for l, p := range st.Mapping {
		if uint(p) >= uint(t.NumPhysical) || st.Refcnt[p] <= 0 {
			return fmt.Errorf("rename: %v%d maps to physical %d, outside [0,%d) or unreferenced", t.Class, l, p, t.NumPhysical)
		}
	}
	// A register is unreferenced exactly while it is free: one missing from
	// the free list would never be renamed to again.
	unref := 0
	for p, n := range st.Refcnt {
		if n < 0 {
			return fmt.Errorf("rename: %v physical %d has refcount %d", t.Class, p, n)
		}
		if n == 0 {
			unref++
		}
	}
	if unref != len(st.Free) {
		return fmt.Errorf("rename: %v has %d unreferenced registers, %d on the free list", t.Class, unref, len(st.Free))
	}
	return nil
}

// TagFileState is the serialisable mid-run state of a TagFile.
type TagFileState struct {
	Tags []Tag
}

// Snapshot captures the tag-file state (deep copy).
func (f *TagFile) Snapshot() TagFileState {
	return TagFileState{Tags: append([]Tag(nil), f.tags...)}
}

// Restore replaces the tag-file state with st. The number of tags is the
// register file's size, configuration rather than state: a state of
// another size is an error and leaves the file unchanged.
func (f *TagFile) Restore(st TagFileState) error {
	if len(st.Tags) != len(f.tags) {
		return fmt.Errorf("rename: tag file holds %d tags, the register file has %d registers",
			len(st.Tags), len(f.tags))
	}
	copy(f.tags, st.Tags)
	if f.idx != nil || slices.ContainsFunc(f.tags, func(t Tag) bool { return t.Valid }) {
		f.buildIndex()
	}
	return nil
}
