package ooosim

import (
	"oovec/internal/iq"
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
//
// The M queue (iq.MemQueue) disambiguates; the scheduler is its store
// buffer (iq.StoreBuffer): when an access conflicts with a pending store,
// the queue asks it to place that store.
type memScheduler struct {
	bus *sched.Gap
	q   *iq.MemQueue //ovlint:config the machine's M queue, which the scheduler reports placed and elided stores to

	pend []pendStore

	// byReady is a binary min-heap of pend indices ordered by (ready time,
	// index) — the ready-order, ties-by-age placement order — over the
	// non-elidable deferred stores flush has not yet reached. Stores placed
	// out of order (PlaceStore) or cancelled are dropped lazily when they
	// reach the top, so flush costs O(log n) per placement instead of a
	// scan over every store of the run.
	byReady []int //ovlint:derived a view of pend; restore rebuilds it

	requests int64
}

type pendStore struct {
	ready    int64
	occ      int64 // bus occupancy (startup + one slot per element)
	req      int64 // element requests (counted at placement for elidables)
	entry    int   // the store's entry number in the M queue
	placed   bool
	elidable bool // spill store awaiting possible dead-store elision
	canceled bool // elided: never issues requests
}

// newMemScheduler returns the store buffer of the M queue q.
func newMemScheduler(q *iq.MemQueue) *memScheduler {
	s := &memScheduler{bus: sched.NewGap(), q: q}
	q.Attach(s)
	return s
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
	s.requests = 0
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
	s.q.SetBusEnd(p.entry, start+p.occ)
}

// PlaceStore implements iq.StoreBuffer: an access conflicts with pending
// store i, which must issue first. It places every store ready up to it,
// then it, preserving ready order. (Elidable stores skip the flush, so it
// places them directly — an overlapping access proves the spilled value is
// live.)
//
//ovlint:hotpath called by the M queue's Dependence check per conflicting pending store
func (s *memScheduler) PlaceStore(i int) {
	if s.pend[i].placed {
		return
	}
	s.flush(s.pend[i].ready)
	s.place(i)
}

// placeNow books the bus for an access that is ready at `ready`: pending
// stores that became ready earlier issue first, then the access takes the
// earliest hole. occ is the bus occupancy (startup plus one slot per
// element); req is the number of element requests issued. Loads are placed
// at once (their consumers need completion times), and so are stores under
// late commit, which needs the completion cycle for the commit calculation.
func (s *memScheduler) placeNow(ready, occ, req int64) (busStart int64) {
	s.flush(ready)
	busStart = s.bus.Allocate(ready, occ)
	s.requests += req
	return busStart
}

// deferStore adds a store, recorded in the M queue as entry number entry,
// whose bus occupancy will be placed lazily. It is used under the
// early-commit policy, where nothing needs the store's exact completion
// cycle immediately. Requests are counted at placement. An elidable store
// is a spill held in the store buffer for possible dead-store elision (the
// paper's §6 "relaxing compatibility" future-work idea): flush skips it,
// and tryCancel may drop it. It returns the store's index, the one the
// queue entry names.
func (s *memScheduler) deferStore(ready, occ, req int64, entry int, elidable bool) int {
	i := len(s.pend)
	s.pend = append(s.pend, pendStore{ready: ready, occ: occ, req: req, entry: entry, elidable: elidable})
	if !elidable {
		s.pushReady(i)
	}
	return i
}

// tryCancel elides a pending spill store if it has not yet issued any
// requests. It returns the elided request count and whether the elision
// succeeded.
func (s *memScheduler) tryCancel(i int) (int64, bool) {
	if i < 0 || i >= len(s.pend) {
		return 0, false
	}
	p := &s.pend[i]
	if p.placed || p.canceled {
		return 0, false
	}
	p.canceled = true
	s.q.Elide(p.entry)
	return p.req, true
}

// finishAll places any still-pending stores (including surviving elidable
// ones — a spill never overwritten must still reach memory) and returns the
// cycle the last bus activity ends: the end of the bus's last interval, or 0.
func (s *memScheduler) finishAll() int64 {
	s.flush(int64(1) << 62)
	for i := range s.pend {
		s.place(i)
	}
	if iv := s.bus.Intervals(); len(iv) > 0 {
		return iv[len(iv)-1].End
	}
	return 0
}
