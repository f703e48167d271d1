// Package rename implements the register-renaming machinery of the OOOVA
// (§2.2): per-class mapping tables translating architectural registers to
// physical registers, free lists, and the reorder-buffer rename records that
// make precise traps possible (§5). It also implements the per-physical-
// register memory tags of the dynamic load elimination technique (§6).
//
// The tables are functional (no cycle knowledge) except that each free-list
// entry carries the cycle at which the register becomes available, so the
// timing simulator can charge decode stalls for an empty free list.
package rename

import (
	"fmt"

	"oovec/internal/isa"
)

// freeEntry is a physical register on the free list, available from ReadyAt.
type freeEntry struct {
	Phys    int
	ReadyAt int64
}

// Table is the rename state of one register class.
//
// The free list is a fixed-capacity ring buffer: a simulation pops and
// pushes one entry per renamed instruction, and a ring keeps that churn
// allocation-free (a plain slice would reallocate its backing array every
// NumPhysical operations).
type Table struct {
	Class       isa.RegClass //ovlint:config structural identity, fixed at construction
	NumLogical  int          //ovlint:config structural size, fixed at construction
	NumPhysical int          //ovlint:config structural size, fixed at construction

	mapping []int       // logical -> physical
	refcnt  []int       // physical -> number of mapping references
	free    []freeEntry // ring buffer of free registers
	head    int         // ring index of the oldest free entry
	count   int         // free entries currently in the ring
}

// NewTable builds a rename table with numPhysical registers. The first
// NumLogical physical registers hold the initial architectural state; the
// rest start on the free list (available at cycle 0).
// numPhysical must exceed the number of logical registers — with no spare
// register, no instruction writing the class could ever be renamed.
func NewTable(class isa.RegClass, numPhysical int) (*Table, error) {
	nl := class.NumLogical()
	if nl == 0 {
		return nil, fmt.Errorf("rename: class %v has no registers", class)
	}
	if numPhysical <= nl {
		return nil, fmt.Errorf("rename: class %v needs > %d physical registers, got %d",
			class, nl, numPhysical)
	}
	t := &Table{
		Class:       class,
		NumLogical:  nl,
		NumPhysical: numPhysical,
		mapping:     make([]int, nl),
		refcnt:      make([]int, numPhysical),
		free:        make([]freeEntry, numPhysical),
	}
	t.Reset()
	return t, nil
}

// Reset restores the initial rename state — identity mapping, every spare
// register free at cycle 0 — without allocating, so machines can be reused
// across runs.
func (t *Table) Reset() {
	for l := 0; l < t.NumLogical; l++ {
		t.mapping[l] = l
	}
	for p := range t.refcnt {
		t.refcnt[p] = 0
	}
	for l := 0; l < t.NumLogical; l++ {
		t.refcnt[l] = 1
	}
	t.head, t.count = 0, 0
	for p := t.NumLogical; p < t.NumPhysical; p++ {
		t.push(freeEntry{Phys: p})
	}
}

// push appends a free entry at the ring tail, which has room for every register.
func (t *Table) push(e freeEntry) {
	t.free[t.wrap(t.head+t.count)] = e
	t.count++
}

// wrap returns ring index i, less than twice the ring length, wrapped by a
// compare rather than a division.
func (t *Table) wrap(i int) int {
	if i >= len(t.free) {
		i -= len(t.free)
	}
	return i
}

// MustNewTable is NewTable that panics on error (for fixed valid configs).
func MustNewTable(class isa.RegClass, numPhysical int) *Table {
	t, err := NewTable(class, numPhysical)
	if err != nil {
		panic(err)
	}
	return t
}

// Lookup returns the physical register currently mapped to logical.
func (t *Table) Lookup(logical int) int { return t.mapping[logical] }

// FreeCount returns the number of registers on the free list.
func (t *Table) FreeCount() int { return t.count }

// Allocate renames logical to a fresh physical register, popping the free
// list head. It returns the new physical register, the old mapping (to be
// released when the instruction commits) and the cycle at which the new
// register is actually available (decode must stall until then). ok is
// false when the free list is empty — the caller must model a stall and may
// not retry until a Release occurs.
//
//ovlint:hotpath called once per renamed instruction
func (t *Table) Allocate(logical int) (newPhys, oldPhys int, readyAt int64, ok bool) {
	if t.count == 0 {
		return 0, 0, 0, false
	}
	e := t.free[t.head]
	t.head = t.wrap(t.head + 1)
	t.count--
	oldPhys = t.mapping[logical]
	t.mapping[logical] = e.Phys
	t.refcnt[e.Phys]++
	return e.Phys, oldPhys, e.ReadyAt, true
}

// Release returns one mapping reference on phys at the given cycle; when the
// last reference drops the register joins the free list, available from
// `at`. Release times must be non-decreasing across calls (commit order),
// which keeps the free list sorted by availability.
//
//ovlint:hotpath called once per committed instruction
func (t *Table) Release(phys int, at int64) {
	if t.refcnt[phys] <= 0 {
		panic(fmt.Sprintf("rename: double release of %v physical %d", t.Class, phys)) //ovlint:allow hotpath panic path, unreachable in a valid run
	}
	t.refcnt[phys]--
	if t.refcnt[phys] == 0 {
		t.push(freeEntry{Phys: phys, ReadyAt: at})
	}
}

// AliasTo maps logical directly onto an existing physical register — the
// §6.1 load-elimination rename. The target may currently be live or on the
// free list ("matching is not restricted to live registers"); a free-list
// target is removed from the list. It returns the old mapping for release
// at commit.
//
//ovlint:hotpath called once per eliminated load
func (t *Table) AliasTo(logical, phys int) (oldPhys int) {
	if t.refcnt[phys] == 0 {
		// Remove phys from the ring, preserving availability order.
		for i := 0; i < t.count; i++ {
			if t.free[t.wrap(t.head+i)].Phys != phys {
				continue
			}
			for j := i; j < t.count-1; j++ {
				t.free[t.wrap(t.head+j)] = t.free[t.wrap(t.head+j+1)]
			}
			t.count--
			break
		}
	}
	oldPhys = t.mapping[logical]
	t.mapping[logical] = phys
	t.refcnt[phys]++
	return oldPhys
}

// Undo reverses one rename (mapping logical from newPhys back to oldPhys)
// during a precise-trap rollback. The instruction being undone never
// committed, so oldPhys was never released; newPhys loses the reference the
// rename gave it and rejoins the free list if that was the last one.
// Rollback walks reorder-buffer records newest-first.
func (t *Table) Undo(logical, oldPhys, newPhys int) {
	if t.mapping[logical] != newPhys {
		//ovlint:allow hotpath panic path, unreachable in a valid rollback
		panic(fmt.Sprintf("rename: undo mismatch on %v%d: mapped %d, undoing %d",
			t.Class, logical, t.mapping[logical], newPhys))
	}
	t.mapping[logical] = oldPhys
	t.Release(newPhys, 0)
}

// CheckInvariants verifies structural sanity: every mapping target is
// referenced, and no free register is listed twice or referenced.
func (t *Table) CheckInvariants() error { return t.check(t.Snapshot()) }

// Record is a reorder-buffer rename record: enough to undo one instruction's
// rename. Note the paper's observation that "the reorder buffer only holds a
// few bits to identify instructions and register names; it never holds
// register values".
type Record struct {
	Class     isa.RegClass
	Logical   int
	OldPhys   int
	NewPhys   int
	HasRename bool
}

// Rollback undoes the renames in records, newest first, restoring the
// precise architectural mapping at the faulting instruction. tables maps the
// register class to its table.
func Rollback(tables map[isa.RegClass]*Table, records []Record) {
	for i := len(records) - 1; i >= 0; i-- {
		r := records[i]
		if !r.HasRename {
			continue
		}
		tables[r.Class].Undo(r.Logical, r.OldPhys, r.NewPhys)
	}
}
