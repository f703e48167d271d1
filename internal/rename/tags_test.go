package rename

import (
	"math/rand"
	"slices"
	"testing"
)

// linearTagFile is the reference for TagFile: the tag scans as linear
// passes over every register, the definition the range-indexed file must
// reproduce exactly.
type linearTagFile struct {
	tags []Tag
}

func (f *linearTagFile) invalidateOverlap(start, end uint64, except int) {
	for p := range f.tags {
		if p != except && f.tags[p].Overlaps(start, end) {
			f.tags[p].Valid = false
		}
	}
}

func (f *linearTagFile) invalidateExact(start, end uint64, except int) {
	for p := range f.tags {
		if p != except && f.tags[p].Valid && f.tags[p].Start == start && f.tags[p].End == end {
			f.tags[p].Valid = false
		}
	}
}

func (f *linearTagFile) findExact(t Tag) int {
	for p := range f.tags {
		if f.tags[p].Matches(t) {
			return p
		}
	}
	return -1
}

// randTag draws a tag whose range is small and crowds a few 4 KiB blocks,
// starts at address 0, straddles a block boundary, spans a gather's region
// or lies in a distant block that shares the index's buckets. Some tags are
// invalid, and a few reuse a range already drawn so exact matches happen.
func randTag(r *rand.Rand, seen []Tag) Tag {
	if len(seen) > 0 && r.Intn(3) == 0 {
		t := seen[r.Intn(len(seen))]
		t.Valid = true
		return t
	}
	var start, n uint64
	switch k := r.Intn(10); {
	case k < 5:
		start, n = uint64(r.Intn(8192)), uint64(1+r.Intn(64))
	case k < 6:
		start, n = 0, uint64(1+r.Intn(64))
	case k < 8:
		start, n = uint64(1+r.Intn(3))<<12-uint64(8*(1+r.Intn(16))), uint64(1+r.Intn(32))
	case k < 9:
		start, n = uint64(r.Intn(16384)), uint64(1024+r.Intn(4096))
	default:
		start, n = uint64(r.Intn(512))<<16, uint64(1+r.Intn(8))
	}
	return Tag{Start: start, End: start + 8*n - 1, VL: uint16(n), VS: 8, Sz: 8,
		Valid: r.Intn(8) != 0}
}

// TestTagFileMatchesLinearReference drives the range-indexed tag file and
// the linear reference with the same random operations — tag writes
// (valid and invalid), single invalidations, overlap and exact
// invalidations with and without a protected register, exact-match probes,
// resets and snapshot/restore into a fresh file — and requires the same
// tags and returned registers after every operation.
func TestTagFileMatchesLinearReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := []int{1, 8, 16, 64, 65, 128}[r.Intn(6)]
		f := NewTagFile(n)
		ref := &linearTagFile{tags: make([]Tag, n)}
		var seen []Tag
		for step := 0; step < 600; step++ {
			tag := randTag(r, seen)
			seen = append(seen, tag)
			except := r.Intn(len(ref.tags)+1) - 1
			switch k := r.Intn(20); {
			case k < 6:
				p := r.Intn(len(ref.tags))
				f.Set(p, tag)
				ref.tags[p] = tag
			case k < 7:
				p := r.Intn(len(ref.tags))
				f.Invalidate(p)
				ref.tags[p].Valid = false
			case k < 11:
				f.InvalidateOverlap(tag.Start, tag.End, except)
				ref.invalidateOverlap(tag.Start, tag.End, except)
			case k < 13:
				f.InvalidateExact(tag.Start, tag.End, except)
				ref.invalidateExact(tag.Start, tag.End, except)
			case k < 18:
				if got, want := f.FindExact(tag), ref.findExact(tag); got != want {
					t.Fatalf("seed %d step %d: FindExact(%+v) = %d, reference %d", seed, step, tag, got, want)
				}
			case k < 19:
				if r.Intn(4) == 0 {
					f.Reset()
					ref.tags = make([]Tag, len(ref.tags))
				}
			default:
				st := f.Snapshot()
				f = NewTagFile(len(ref.tags))
				if err := f.Restore(st); err != nil {
					t.Fatalf("seed %d step %d: Restore: %v", seed, step, err)
				}
			}
			if got := f.Snapshot(); !slices.Equal(got.Tags, ref.tags) {
				t.Fatalf("seed %d step %d: tag file diverges from the linear reference:\n got %+v\nwant %+v",
					seed, step, got, ref.tags)
			}
		}
	}
}

func TestTagFileRestoreRejectsAnotherSize(t *testing.T) {
	f := NewTagFile(8)
	f.Set(3, Tag{Start: 0x100, End: 0x1ff, VL: 32, VS: 8, Sz: 8, Valid: true})
	st := f.Snapshot()
	for _, n := range []int{0, 7, 9} {
		g := NewTagFile(8)
		bad := TagFileState{Tags: make([]Tag, n)}
		copy(bad.Tags, st.Tags)
		if err := g.Restore(bad); err == nil {
			t.Errorf("restoring %d tags into a file of 8 succeeded", n)
		}
	}
	g := NewTagFile(8)
	if err := g.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := g.FindExact(st.Tags[3]); got != 3 {
		t.Errorf("FindExact after Restore = %d, want 3", got)
	}
}
