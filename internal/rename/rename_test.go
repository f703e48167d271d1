package rename

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"oovec/internal/isa"
)

func TestNewTableInitialState(t *testing.T) {
	tb := MustNewTable(isa.RegV, 16)
	if tb.FreeCount() != 8 {
		t.Errorf("free count = %d, want 8", tb.FreeCount())
	}
	for l := 0; l < 8; l++ {
		if tb.Lookup(l) != l {
			t.Errorf("initial mapping v%d = %d", l, tb.Lookup(l))
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNewTableRejectsTooFewPhysical(t *testing.T) {
	if _, err := NewTable(isa.RegV, 8); err == nil {
		t.Error("8 physical for 8 logical should be rejected")
	}
	if _, err := NewTable(isa.RegV, 9); err != nil {
		t.Errorf("9 physical should be the minimum: %v", err)
	}
	if _, err := NewTable(isa.RegNone, 4); err == nil {
		t.Error("classless table should be rejected")
	}
}

func TestAllocateReleaseCycle(t *testing.T) {
	tb := MustNewTable(isa.RegV, 10) // phys 8,9 free
	np, op, rdy, ok := tb.Allocate(3)
	if !ok || np != 8 || op != 3 || rdy != 0 {
		t.Fatalf("Allocate = (%d,%d,%d,%v)", np, op, rdy, ok)
	}
	if tb.Lookup(3) != 8 {
		t.Errorf("v3 now maps to %d, want 8", tb.Lookup(3))
	}
	np2, op2, _, ok := tb.Allocate(3)
	if !ok || np2 != 9 || op2 != 8 {
		t.Fatalf("second Allocate = (%d,%d,_,%v)", np2, op2, ok)
	}
	// Free list empty now.
	if _, _, _, ok := tb.Allocate(0); ok {
		t.Error("allocation from empty free list must fail")
	}
	// Commit the first instruction: old mapping (phys 3) released at cycle 100.
	tb.Release(op, 100)
	np3, _, rdy3, ok := tb.Allocate(0)
	if !ok || np3 != 3 || rdy3 != 100 {
		t.Fatalf("post-release Allocate = (%d,_,%d,%v), want phys 3 at 100", np3, rdy3, ok)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	tb := MustNewTable(isa.RegV, 10)
	_, op, _, _ := tb.Allocate(0)
	tb.Release(op, 10)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double release")
		}
	}()
	tb.Release(op, 20)
}

func TestAliasToLiveRegister(t *testing.T) {
	tb := MustNewTable(isa.RegV, 12)
	// v1 currently maps to phys 1 (live). Alias v5 onto it (eliminated load).
	old := tb.AliasTo(5, 1)
	if old != 5 {
		t.Errorf("old mapping = %d, want 5", old)
	}
	if tb.Lookup(5) != 1 || tb.Lookup(1) != 1 {
		t.Error("aliasing broke mappings")
	}
	if tb.Snapshot().Refcnt[1] != 2 {
		t.Errorf("refcount = %d, want 2", tb.Snapshot().Refcnt[1])
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Releasing one reference must not free the register.
	tb.Release(1, 50)
	if tb.Snapshot().Refcnt[1] != 1 || tb.FreeCount() != 4 {
		t.Error("register freed while still mapped")
	}
}

func TestAliasToFreeRegisterRemovesFromFreeList(t *testing.T) {
	tb := MustNewTable(isa.RegV, 10) // free: 8, 9
	// Simulate §6.1: "If a load matches a register in the free list, the
	// register is taken from the free list and added to the register map".
	old := tb.AliasTo(2, 9)
	if old != 2 {
		t.Errorf("old = %d", old)
	}
	if tb.FreeCount() != 1 {
		t.Errorf("free count = %d, want 1", tb.FreeCount())
	}
	if tb.Lookup(2) != 9 {
		t.Errorf("v2 maps to %d, want 9", tb.Lookup(2))
	}
	// Allocation must now hand out 8, not 9.
	np, _, _, ok := tb.Allocate(0)
	if !ok || np != 8 {
		t.Errorf("Allocate = %d, want 8", np)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestUndoRestoresMapping(t *testing.T) {
	tb := MustNewTable(isa.RegV, 12)
	np, op, _, _ := tb.Allocate(4)
	tb.Undo(4, op, np)
	if tb.Lookup(4) != 4 {
		t.Errorf("after undo v4 maps to %d, want 4", tb.Lookup(4))
	}
	if tb.FreeCount() != 4 {
		t.Errorf("free count = %d, want 4 (undone register returned)", tb.FreeCount())
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestUndoMismatchPanics(t *testing.T) {
	tb := MustNewTable(isa.RegV, 12)
	tb.Allocate(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched undo")
		}
	}()
	tb.Undo(4, 4, 99)
}

func TestRollbackMultipleRecords(t *testing.T) {
	tables := map[isa.RegClass]*Table{
		isa.RegV: MustNewTable(isa.RegV, 16),
		isa.RegS: MustNewTable(isa.RegS, 16),
	}
	var records []Record
	// Three renames: v1, s2, v1 again.
	for _, step := range []struct {
		class   isa.RegClass
		logical int
	}{{isa.RegV, 1}, {isa.RegS, 2}, {isa.RegV, 1}} {
		np, op, _, ok := tables[step.class].Allocate(step.logical)
		if !ok {
			t.Fatal("allocation failed")
		}
		records = append(records, Record{
			Class: step.class, Logical: step.logical,
			OldPhys: op, NewPhys: np, HasRename: true,
		})
	}
	// A no-rename record (e.g. a store) interleaved.
	records = append(records, Record{HasRename: false})
	Rollback(tables, records)
	if tables[isa.RegV].Lookup(1) != 1 {
		t.Errorf("v1 maps to %d after rollback, want 1", tables[isa.RegV].Lookup(1))
	}
	if tables[isa.RegS].Lookup(2) != 2 {
		t.Errorf("s2 maps to %d after rollback, want 2", tables[isa.RegS].Lookup(2))
	}
	for _, tb := range tables {
		if err := tb.CheckInvariants(); err != nil {
			t.Error(err)
		}
		if tb.FreeCount() != 8 {
			t.Errorf("%v free count = %d, want 8", tb.Class, tb.FreeCount())
		}
	}
}

func TestPropertyAllocReleaseInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := MustNewTable(isa.RegV, 9+r.Intn(56))
		type pending struct{ old int }
		var inflight []pending
		var clock int64
		for i := 0; i < 500; i++ {
			clock++
			switch r.Intn(3) {
			case 0, 1: // rename
				np, op, _, ok := tb.Allocate(r.Intn(8))
				if ok {
					inflight = append(inflight, pending{old: op})
					_ = np
				}
			case 2: // commit oldest
				if len(inflight) > 0 {
					tb.Release(inflight[0].old, clock)
					inflight = inflight[1:]
				}
			}
			if tb.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFreeListTimesNondecreasing(t *testing.T) {
	// With releases in commit order, successive allocations must see
	// non-decreasing availability times.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := MustNewTable(isa.RegV, 9)
		var clock int64
		var pendingOld []int
		lastReady := int64(-1)
		for i := 0; i < 300; i++ {
			clock += int64(r.Intn(5))
			if np, op, rdy, ok := tb.Allocate(r.Intn(8)); ok {
				_ = np
				pendingOld = append(pendingOld, op)
				if rdy < lastReady {
					return false
				}
				lastReady = rdy
			} else if len(pendingOld) > 0 {
				tb.Release(pendingOld[0], clock)
				pendingOld = pendingOld[1:]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTagExactMatch(t *testing.T) {
	a := Tag{Start: 0x1000, End: 0x11ff, VL: 64, VS: 8, Sz: 8, Valid: true}
	b := a
	if !a.Matches(b) {
		t.Error("identical tags must match")
	}
	c := a
	c.VS = 16
	if a.Matches(c) {
		t.Error("different stride must not match")
	}
	d := a
	d.Valid = false
	if a.Matches(d) || d.Matches(a) {
		t.Error("invalid tags never match")
	}
}

func TestTagOverlap(t *testing.T) {
	a := Tag{Start: 100, End: 199, Valid: true}
	if !a.Overlaps(150, 250) || !a.Overlaps(0, 100) || !a.Overlaps(199, 199) {
		t.Error("overlapping ranges not detected")
	}
	if a.Overlaps(200, 300) || a.Overlaps(0, 99) {
		t.Error("disjoint ranges flagged as overlap")
	}
	a.Valid = false
	if a.Overlaps(150, 250) {
		t.Error("invalid tag must not overlap")
	}
}

func TestTagFileStoreLoadEliminationScenario(t *testing.T) {
	// The core §6 scenario: spill store tags its register; the reload finds
	// an exact match.
	f := NewTagFile(16)
	storeTag := Tag{Start: 0x9000, End: 0x91ff, VL: 64, VS: 8, Sz: 8, Valid: true}
	f.Set(5, storeTag) // store of phys 5 to the spill slot
	if got := f.FindExact(storeTag); got != 5 {
		t.Errorf("FindExact = %d, want 5", got)
	}
}

func TestTagFileInvalidateOverlapConservative(t *testing.T) {
	f := NewTagFile(8)
	f.Set(0, Tag{Start: 0x1000, End: 0x10ff, VL: 32, VS: 8, Sz: 8, Valid: true})
	f.Set(1, Tag{Start: 0x2000, End: 0x20ff, VL: 32, VS: 8, Sz: 8, Valid: true})
	f.Set(2, Tag{Start: 0x1080, End: 0x117f, VL: 32, VS: 8, Sz: 8, Valid: true})
	// Store to [0x1050, 0x10a0] with its data in phys 3: kills 0 and 2, not 1.
	f.InvalidateOverlap(0x1050, 0x10a0, 3)
	if f.Get(0).Valid || f.Get(2).Valid {
		t.Error("overlapping tags must be invalidated")
	}
	if !f.Get(1).Valid {
		t.Error("disjoint tag must survive")
	}
}

func TestTagFileExceptProtectsStoreOwnTag(t *testing.T) {
	f := NewTagFile(8)
	tag := Tag{Start: 0x9000, End: 0x90ff, VL: 32, VS: 8, Sz: 8, Valid: true}
	f.Set(4, tag)
	f.InvalidateOverlap(0x9000, 0x90ff, 4) // store sets then protects its own tag
	if !f.Get(4).Valid {
		t.Error("store's own tag must survive its invalidation pass")
	}
}

func TestTagFileFindExactDeterministic(t *testing.T) {
	f := NewTagFile(8)
	tag := Tag{Start: 0x100, End: 0x1ff, VL: 32, VS: 8, Sz: 8, Valid: true}
	f.Set(6, tag)
	f.Set(3, tag)
	if got := f.FindExact(tag); got != 3 {
		t.Errorf("FindExact = %d, want lowest-numbered 3", got)
	}
}

func TestPropertyInvalidationNeverLeavesOverlappingValidTags(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tf := NewTagFile(16)
		for i := 0; i < 200; i++ {
			switch r.Intn(3) {
			case 0: // load: set a tag
				start := uint64(r.Intn(1 << 12))
				n := uint64(1 + r.Intn(64))
				tf.Set(r.Intn(16), Tag{Start: start, End: start + n*8 - 1,
					VL: uint16(n), VS: 8, Sz: 8, Valid: true})
			case 1, 2: // store: set own tag then invalidate overlaps
				start := uint64(r.Intn(1 << 12))
				n := uint64(1 + r.Intn(64))
				own := r.Intn(16)
				tag := Tag{Start: start, End: start + n*8 - 1,
					VL: uint16(n), VS: 8, Sz: 8, Valid: true}
				tf.Set(own, tag)
				tf.InvalidateOverlap(tag.Start, tag.End, own)
				// Post-condition: no other valid tag overlaps the store.
				for p := 0; p < 16; p++ {
					if p != own && tf.Get(p).Overlaps(tag.Start, tag.End) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAliasToAcrossRingWrap drives Allocate, Release and AliasTo with
// random operations, so the free ring's head and the removed entry wrap
// past the end of the ring, and checks the free list after every step
// against a plain slice kept in availability order.
func TestAliasToAcrossRingWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := MustNewTable(isa.RegV, 12)
	free := tb.Snapshot().Free // the reference free list, oldest first
	var at int64
	for step := range 4000 {
		l := rng.Intn(tb.NumLogical)
		var old int
		if rng.Intn(3) == 0 {
			phys := rng.Intn(tb.NumPhysical)
			if i := slices.IndexFunc(free, func(e FreeEntry) bool { return e.Phys == phys }); i >= 0 {
				free = slices.Delete(free, i, i+1)
			}
			old = tb.AliasTo(l, phys)
		} else {
			np, o, _, ok := tb.Allocate(l)
			if !ok {
				t.Fatalf("step %d: free list empty", step)
			}
			if np != free[0].Phys {
				t.Fatalf("step %d: Allocate = %d, reference head %d", step, np, free[0].Phys)
			}
			free, old = free[1:], o
		}
		at += int64(rng.Intn(3))
		tb.Release(old, at)
		if tb.Snapshot().Refcnt[old] == 0 {
			free = append(free, FreeEntry{Phys: old, ReadyAt: at})
		}
		if got := tb.Snapshot().Free; !slices.Equal(got, free) {
			t.Fatalf("step %d: free list %v, reference %v", step, got, free)
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
