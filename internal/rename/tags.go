package rename

// Memory tags for dynamic load elimination (§6.1).
//
// A tag is associated with each physical register and records the memory
// region whose contents the register currently mirrors. For vector
// registers the tag is the 6-tuple (@1, @2, vl, vs, sz, v): the virtual
// address range, the vector length, stride and access granularity used when
// the tag was created, and a validity bit. Scalar registers use the same
// structure with VL=1 and VS=0 (the paper's 4-tuple).
//
// Tag life cycle:
//
//   - a load sets the tag of its destination physical register;
//   - a store sets the tag of the physical register being stored (this is
//     what makes spill store → reload pairs eliminable);
//   - every store invalidates all existing tags whose address ranges
//     overlap the store's range (conservatively), except the tag the store
//     itself just wrote;
//   - a later load whose tag matches an existing tag exactly is redundant:
//     its destination is renamed to the matching physical register.

import "oovec/internal/rangeidx"

// Tag describes the memory image aliased by one physical register.
type Tag struct {
	// Start and End delimit the byte range [Start, End] touched.
	Start, End uint64
	// VL and VS are the vector length and stride at tag creation.
	VL uint16
	VS int32
	// Sz is the access granularity in bytes.
	Sz uint8
	// Valid is the validity bit.
	Valid bool
}

// Matches reports an exact match as §6.1 requires: "an exact match requires
// all tag fields to be identical".
func (t Tag) Matches(o Tag) bool {
	return t.Valid && o.Valid &&
		t.Start == o.Start && t.End == o.End &&
		t.VL == o.VL && t.VS == o.VS && t.Sz == o.Sz
}

// Overlaps reports whether the tag's range intersects [start, end].
func (t Tag) Overlaps(start, end uint64) bool {
	return t.Valid && t.Start <= end && start <= t.End
}

// TagFile holds the tags of one register class's physical registers.
//
// The valid tags are indexed by address block (package rangeidx), so a
// store's invalidation and a load's exact-match probe visit only the
// registers whose ranges overlap theirs, in ascending register order. The
// index is allocated with the first valid tag: a machine without load
// elimination never sets one, and carries none.
type TagFile struct {
	tags []Tag
	idx  *rangeidx.Index //ovlint:derived the valid tags by address block; Restore rebuilds it
}

// NewTagFile returns a tag file for n physical registers, all invalid.
func NewTagFile(n int) *TagFile {
	return &TagFile{tags: make([]Tag, n)}
}

// buildIndex sizes the index for the file and fills it with the valid
// tags.
//
//ovlint:coldpath once per tag file, at its first valid tag, or per restore
func (f *TagFile) buildIndex() {
	if f.idx == nil {
		f.idx = rangeidx.New(len(f.tags))
	} else {
		f.idx.Reset()
	}
	for p, t := range f.tags {
		if t.Valid {
			f.idx.Insert(p, t.Start, t.End, false)
		}
	}
}

// Reset invalidates every tag, reusing the storage.
func (f *TagFile) Reset() {
	clear(f.tags)
	if f.idx != nil {
		f.idx.Reset()
	}
}

// Set installs a tag on phys.
func (f *TagFile) Set(phys int, t Tag) {
	f.tags[phys] = t
	switch {
	case !t.Valid:
		f.Invalidate(phys)
	case f.idx == nil:
		f.buildIndex()
	default:
		f.idx.Insert(phys, t.Start, t.End, false)
	}
}

// Get returns the tag of phys.
func (f *TagFile) Get(phys int) Tag { return f.tags[phys] }

// Invalidate clears the tag of phys (e.g. the register was overwritten by a
// functional-unit result, which no longer mirrors memory).
func (f *TagFile) Invalidate(phys int) {
	f.tags[phys].Valid = false
	if f.idx != nil {
		f.idx.Remove(phys)
	}
}

// overlapping returns the registers whose valid tags overlap [start, end],
// as a bitset to walk with rangeidx.Next; nil when no tag was ever valid.
func (f *TagFile) overlapping(start, end uint64) []uint64 {
	if f.idx == nil {
		return nil
	}
	return f.idx.Query(start, end, false)
}

// InvalidateOverlap clears every tag overlapping [start, end], except the
// register `except` (pass -1 for none). This is the conservative
// invalidation a store performs.
func (f *TagFile) InvalidateOverlap(start, end uint64, except int) {
	over := f.overlapping(start, end)
	for p := rangeidx.Next(over, 0); p >= 0; p = rangeidx.Next(over, p+1) {
		if p != except && f.tags[p].Overlaps(start, end) {
			f.Invalidate(p)
		}
	}
}

// InvalidateExact clears only tags whose range equals [start, end] exactly,
// except `except`. This policy is UNSAFE (a partially overlapping store
// leaves stale tags); only funcsim uses it, to demonstrate the wrong values
// it would return where the §6.1 conservative policy stays correct.
func (f *TagFile) InvalidateExact(start, end uint64, except int) {
	over := f.overlapping(start, end)
	for p := rangeidx.Next(over, 0); p >= 0; p = rangeidx.Next(over, p+1) {
		if p != except && f.tags[p].Valid && f.tags[p].Start == start && f.tags[p].End == end {
			f.Invalidate(p)
		}
	}
}

// FindExact returns the physical register whose tag exactly matches t, or
// -1. When several match (possible after aliasing), the lowest-numbered one
// is returned, keeping the simulator deterministic.
func (f *TagFile) FindExact(t Tag) int {
	over := f.overlapping(t.Start, t.End)
	for p := rangeidx.Next(over, 0); p >= 0; p = rangeidx.Next(over, p+1) {
		if f.tags[p].Matches(t) {
			return p
		}
	}
	return -1
}
