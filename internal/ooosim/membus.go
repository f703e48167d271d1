package ooosim

import (
	"oovec/internal/rangeidx"
	"oovec/internal/sched"
)

// memScheduler arbitrates the single shared address bus among memory
// instructions in *ready order* rather than program order.
//
// The simulator processes the trace in program order, but a store whose data
// arrives late must not reserve bus cycles that a younger, already-ready
// load could use: the real machine's memory queue issues whichever
// disambiguated instruction is ready first. Loads are placed immediately
// (their consumers need completion times at once); stores are held pending
// and placed lazily — whenever a load with a later ready time is placed,
// when a conflicting (overlapping) access needs the store's bus occupancy,
// when precise-trap commit needs its completion, or at the end of the run.
// Pending stores are always placed in ready order, which is exactly the
// oldest-ready-first arbitration of the hardware.
type memScheduler struct {
	bus *sched.Gap

	pend []pendStore

	// byReady is a binary min-heap of pend indices ordered by (ready time,
	// index) — the ready-order, ties-by-age placement order — over the
	// non-elidable deferred stores flush has not yet reached. Stores placed
	// out of order (conflictConstraint) or cancelled are dropped lazily
	// when they reach the top, so flush costs O(log n) per placement
	// instead of a scan over every store of the run.
	byReady []int //ovlint:derived a view of pend; restore rebuilds it

	entries [memScanWindow]memEntry
	n       int
	scanWin int //ovlint:config structural size, fixed at construction
	slot    int //ovlint:derived n % scanWin, the range-index slot of the next access; restore rebuilds it

	// ranges indexes the byte ranges of the last scanWin entries, access i
	// in slot i%scanWin and marked if it is a store, so conflictConstraint
	// visits only the overlapping entries instead of the whole window.
	ranges *rangeidx.Index //ovlint:derived the ranges of the live entries; restore rebuilds it

	requests  int64
	conflicts int64
	lastEnd   int64
}

// memScanWindow bounds the disambiguation scan, mirroring the queue's
// bounded capacity. Accesses further apart are serialised by the bus anyway.
const memScanWindow = 256

type pendStore struct {
	ready    int64
	occ      int64 // bus occupancy (startup + one slot per element)
	req      int64 // element requests (counted at placement for elidables)
	entry    int   // index into the entries ring (absolute)
	placed   bool
	elidable bool // spill store awaiting possible dead-store elision
	canceled bool // elided: never issues requests
}

// memEntry is the disambiguation record of one memory access.
type memEntry struct {
	rstart, rend uint64
	isStore      bool
	busEnd       int64
	pendIdx      int // >= 0 while the store is still pending
}

func newMemScheduler(queueSlots int) *memScheduler {
	w := queueSlots
	if w > memScanWindow {
		w = memScanWindow
	}
	if w <= 0 {
		w = 16
	}
	return &memScheduler{bus: sched.NewGap(), scanWin: w, ranges: rangeidx.New(w)}
}

// reserve sizes the bus interval list, the pending-store list and the
// ready heap so steady-state appends never reallocate; the bounds derive
// from the trace's memory-instruction and store counts. Growth keeps the
// current contents, so reserving after a restore loses nothing.
func (s *memScheduler) reserve(busIv, stores int) {
	s.bus.Reserve(busIv)
	if cap(s.pend) < stores {
		grown := make([]pendStore, len(s.pend), stores)
		copy(grown, s.pend)
		s.pend = grown
	}
	if cap(s.byReady) < stores {
		grown := make([]int, len(s.byReady), stores)
		copy(grown, s.byReady)
		s.byReady = grown
	}
}

// reset restores the empty-scheduler state, reusing the pending-store
// storage.
func (s *memScheduler) reset() {
	s.bus.Reset()
	s.pend = s.pend[:0]
	s.byReady = s.byReady[:0]
	s.ranges.Reset()
	s.n, s.slot = 0, 0
	s.requests, s.conflicts, s.lastEnd = 0, 0, 0
}

// note tracks the latest bus activity for end-of-run accounting.
func (s *memScheduler) note(end int64) {
	if end > s.lastEnd {
		s.lastEnd = end
	}
}

// flush places every pending store whose ready time is at or before
// threshold, in ready order (ties by age). Elidable spill stores are NOT
// flushed here: they wait in the store buffer for possible dead-store
// elision and are placed only on overlap demand or at end of run.
func (s *memScheduler) flush(threshold int64) {
	for len(s.byReady) > 0 {
		i := s.byReady[0]
		if s.pend[i].ready > threshold {
			return
		}
		s.popReady()
		s.place(i) // no-op for a store placed out of order or cancelled
	}
}

// readyLess orders pend indices by ready time, ties by age.
func (s *memScheduler) readyLess(a, b int) bool {
	ra, rb := s.pend[a].ready, s.pend[b].ready
	return ra < rb || (ra == rb && a < b)
}

// pushReady adds pend index i to the ready heap.
func (s *memScheduler) pushReady(i int) {
	h := append(s.byReady, i)
	j := len(h) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !s.readyLess(h[j], h[parent]) {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		j = parent
	}
	s.byReady = h
}

// popReady removes the top of the ready heap.
func (s *memScheduler) popReady() {
	h := s.byReady
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	j := 0
	for {
		c := 2*j + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && s.readyLess(h[r], h[c]) {
			c = r
		}
		if !s.readyLess(h[c], h[j]) {
			break
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
	s.byReady = h
}

// place books the bus for pending store i.
func (s *memScheduler) place(i int) {
	p := &s.pend[i]
	if p.placed || p.canceled {
		return
	}
	start := s.bus.Allocate(p.ready, p.occ)
	p.placed = true
	s.requests += p.req
	if p.entry >= s.n-memScanWindow {
		// The disambiguation ring may have reused the slot; only a live
		// entry is updated.
		e := &s.entries[p.entry%memScanWindow]
		e.busEnd = start + p.occ
		e.pendIdx = -1
	}
	s.note(start + p.occ)
}

// conflictConstraint returns the earliest cycle an access over [rstart,
// rend] may issue, given earlier overlapping accesses (at least one of the
// pair being a store). Pending overlapping stores are forced to place, in
// age order.
func (s *memScheduler) conflictConstraint(rstart, rend uint64, isStore bool) int64 {
	// A load conflicts only with stores. Entry lo = n-scanWin (negative, and
	// its slots empty, before the window fills) sits in slot first; slots
	// first.. hold lo.., and slots 0..first-1 the younger entries after them.
	over := s.ranges.Query(rstart, rend, !isStore)
	lo, first := s.n-s.scanWin, s.slot
	var at int64
	for slot := rangeidx.Next(over, first); slot >= 0; slot = rangeidx.Next(over, slot+1) {
		at = max(at, s.conflictWith(lo+slot-first, rstart, rend, isStore))
	}
	for slot := rangeidx.Next(over, 0); slot >= 0 && slot < first; slot = rangeidx.Next(over, slot+1) {
		at = max(at, s.conflictWith(lo+s.scanWin-first+slot, rstart, rend, isStore))
	}
	if at > 0 {
		s.conflicts++
	}
	return at
}

// conflictWith checks the access over [rstart, rend] against entry i, an
// overlapping entry the range index returned, and returns the cycle the
// entry's bus occupancy ends if the two conflict, else 0. The check is the
// index's own for a well-formed range; only an inverted one (rstart >
// rend), for which the index returns every live entry, depends on it.
func (s *memScheduler) conflictWith(i int, rstart, rend uint64, isStore bool) int64 {
	e := &s.entries[i%memScanWindow]
	if !(isStore || e.isStore) || !(e.rstart <= rend && rstart <= e.rend) {
		return 0
	}
	if e.pendIdx >= 0 && !s.pend[e.pendIdx].placed {
		// The older conflicting store must issue first; place every
		// store ready up to it, then it, preserving ready order.
		// (Elidable stores skip the flush, so place them directly —
		// an overlapping access proves the spilled value is live.)
		idx := e.pendIdx
		s.flush(s.pend[idx].ready)
		s.place(idx)
	}
	return e.busEnd
}

// record appends a disambiguation entry and returns its absolute index.
func (s *memScheduler) record(rstart, rend uint64, isStore bool, busEnd int64, pendIdx int) int {
	s.entries[s.n%memScanWindow] = memEntry{
		rstart: rstart, rend: rend, isStore: isStore, busEnd: busEnd, pendIdx: pendIdx,
	}
	s.ranges.Insert(s.slot, rstart, rend, isStore) // replaces entry n-scanWin
	if s.slot++; s.slot == s.scanWin {
		s.slot = 0
	}
	s.n++
	return s.n - 1
}

// placeLoad books the bus for a load that is ready at `ready`: pending
// stores that became ready earlier issue first, then the load takes the
// earliest hole. occ is the bus occupancy (startup plus one slot per
// element); req is the number of element requests issued.
func (s *memScheduler) placeLoad(ready, occ, req int64, rstart, rend uint64) (busStart int64) {
	s.flush(ready)
	busStart = s.bus.Allocate(ready, occ)
	s.requests += req
	s.record(rstart, rend, false, busStart+occ, -1)
	s.note(busStart + occ)
	return busStart
}

// deferStore records a store whose bus occupancy will be placed lazily. It
// is used under the early-commit policy, where nothing needs the store's
// exact completion cycle immediately. Requests are counted at placement.
func (s *memScheduler) deferStore(ready, occ, req int64, rstart, rend uint64) {
	entry := s.record(rstart, rend, true, 0, len(s.pend))
	s.pend = append(s.pend, pendStore{ready: ready, occ: occ, req: req, entry: entry})
	s.pushReady(len(s.pend) - 1)
}

// deferElidableStore records a spill store held in the store buffer for
// possible dead-store elision (the paper's §6 "relaxing compatibility"
// future-work idea). It returns a handle for tryCancel.
func (s *memScheduler) deferElidableStore(ready, occ, req int64, rstart, rend uint64) int {
	entry := s.record(rstart, rend, true, 0, len(s.pend))
	s.pend = append(s.pend, pendStore{ready: ready, occ: occ, req: req,
		entry: entry, elidable: true})
	return len(s.pend) - 1
}

// tryCancel elides a pending spill store if it has not yet issued any
// requests. It returns the elided request count and whether the elision
// succeeded.
func (s *memScheduler) tryCancel(pendIdx int) (int64, bool) {
	if pendIdx < 0 || pendIdx >= len(s.pend) {
		return 0, false
	}
	p := &s.pend[pendIdx]
	if p.placed || p.canceled {
		return 0, false
	}
	p.canceled = true
	if p.entry >= s.n-memScanWindow {
		// Neutralise the disambiguation entry: a dead store orders nothing.
		e := &s.entries[p.entry%memScanWindow]
		e.rstart, e.rend = 1, 0 // empty range: overlaps nothing
		e.busEnd = 0
		e.pendIdx = -1
	}
	if p.entry >= s.n-s.scanWin {
		s.ranges.Remove(p.entry % s.scanWin)
	}
	return p.req, true
}

// placeStoreNow books the bus for a store immediately (late commit needs
// the completion cycle for the commit calculation). Ready-order placement
// of earlier pending stores is preserved.
func (s *memScheduler) placeStoreNow(ready, occ, req int64, rstart, rend uint64) (busStart int64) {
	s.flush(ready)
	busStart = s.bus.Allocate(ready, occ)
	s.requests += req
	s.record(rstart, rend, true, busStart+occ, -1)
	s.note(busStart + occ)
	return busStart
}

// recordEliminated registers an eliminated load for disambiguation
// bookkeeping without any bus traffic.
func (s *memScheduler) recordEliminated(rstart, rend uint64, at int64) {
	s.record(rstart, rend, false, at, -1)
}

// finishAll places any still-pending stores (including surviving elidable
// ones — a spill never overwritten must still reach memory) and returns the
// cycle the last bus activity ends.
func (s *memScheduler) finishAll() int64 {
	s.flush(int64(1) << 62)
	for i := range s.pend {
		s.place(i)
	}
	return s.lastEnd
}
