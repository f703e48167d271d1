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

	// pend holds the deferred stores from the oldest unplaced one on, as a
	// ring: store number n (the name the M queue, spillPend and byReady use)
	// is pend[n&(len(pend)-1)] for base <= n < base+held.
	pend       []pendStore
	base, held int

	// byReady is a binary min-heap of the (ready time, store number) of the
	// non-elidable deferred stores flush has not yet reached — the
	// ready-order, ties-by-age placement order. Stores placed out of order
	// (PlaceStore) or cancelled are dropped lazily when they reach the top,
	// so flush costs O(log n) per placement instead of a scan over every
	// held store.
	byReady []readyKey //ovlint:derived a view of pend; restore rebuilds it

	requests int64
}

type pendStore struct {
	ready    int64
	dep      int64 // Dependence-stage cycle: no later than ready, nor than any younger store's
	occ      int64 // bus occupancy (startup + one slot per element)
	req      int64 // element requests (counted at placement for elidables)
	entry    int   // the store's entry number in the M queue
	placed   bool
	elidable bool // spill store awaiting possible dead-store elision
	canceled bool // elided: never issues requests
}

// readyKey orders a held store in byReady.
type readyKey struct {
	ready int64
	n     int
}

// newMemScheduler returns the store buffer of the M queue q.
func newMemScheduler(q *iq.MemQueue) *memScheduler {
	s := &memScheduler{bus: sched.NewGap(), q: q, pend: make([]pendStore, 16)}
	q.Attach(s)
	return s
}

// reset restores the empty-scheduler state, reusing the ring's storage.
func (s *memScheduler) reset() {
	s.bus.Reset()
	s.base, s.held = 0, 0
	s.byReady = s.byReady[:0]
	s.requests = 0
}

// store returns held store number n, or nil if it has left the buffer or
// was never deferred.
func (s *memScheduler) store(n int) *pendStore {
	if n < s.base || n >= s.base+s.held {
		return nil
	}
	return &s.pend[n&(len(s.pend)-1)]
}

// nextStore returns the number the next deferred store gets.
func (s *memScheduler) nextStore() int { return s.base + s.held }

// retire drops the placed and cancelled stores at the front of the ring.
func (s *memScheduler) retire() {
	for s.held > 0 {
		if p := &s.pend[s.base&(len(s.pend)-1)]; !p.placed && !p.canceled {
			return
		}
		s.base++
		s.held--
	}
}

// grow doubles the ring, moving each held store to its number's new slot.
//
//ovlint:coldpath runs only when more stores are in flight than ever before on this machine
func (s *memScheduler) grow() {
	ring := make([]pendStore, 2*len(s.pend))
	for n := s.base; n < s.base+s.held; n++ {
		ring[n&(len(ring)-1)] = s.pend[n&(len(s.pend)-1)]
	}
	s.pend = ring
}

// floor returns a cycle no later bus booking starts before, given the
// current decode cycle dec. Later loads and late-commit stores book after
// their Dependence stage, so after dec; a held store books at or after its
// ready cycle, so after its Dependence stage, and the stage is in order.
func (s *memScheduler) floor(dec int64) int64 {
	if s.held == 0 {
		return dec
	}
	return min(dec, s.pend[s.base&(len(s.pend)-1)].dep)
}

// flush places every pending store whose ready time is at or before
// threshold, in ready order (ties by age). Elidable spill stores are NOT
// flushed here: they wait in the store buffer for possible dead-store
// elision and are placed only on overlap demand or at end of run.
func (s *memScheduler) flush(threshold int64) {
	for len(s.byReady) > 0 {
		k := s.byReady[0]
		if k.ready > threshold {
			return
		}
		s.popReady()
		s.place(k.n) // no-op for a store placed out of order or cancelled
	}
}

// readyLess orders heap keys by ready time, ties by age.
func readyLess(a, b readyKey) bool {
	return a.ready < b.ready || (a.ready == b.ready && a.n < b.n)
}

// pushReady adds k to the ready heap.
func (s *memScheduler) pushReady(k readyKey) {
	h := append(s.byReady, k)
	j := len(h) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !readyLess(h[j], h[parent]) {
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
		if r := c + 1; r < len(h) && readyLess(h[r], h[c]) {
			c = r
		}
		if !readyLess(h[c], h[j]) {
			break
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
	s.byReady = h
}

// place books the bus for held store n.
func (s *memScheduler) place(n int) {
	p := s.store(n)
	if p == nil || p.placed || p.canceled {
		return
	}
	start := s.bus.Allocate(p.ready, p.occ)
	p.placed = true
	s.requests += p.req
	s.q.SetBusEnd(p.entry, start+p.occ)
	s.retire()
}

// PlaceStore implements iq.StoreBuffer: an access conflicts with pending
// store n, which must issue first. It places every store ready up to it,
// then it, preserving ready order. (Elidable stores skip the flush, so it
// places them directly — an overlapping access proves the spilled value is
// live.)
//
//ovlint:hotpath called by the M queue's Dependence check per conflicting pending store
func (s *memScheduler) PlaceStore(n int) {
	p := s.store(n)
	if p == nil || p.placed {
		return
	}
	s.flush(p.ready)
	s.place(n)
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

// deferStore adds a store, recorded in the M queue as entry number entry
// after leaving the Dependence stage at dep, whose bus occupancy will be
// placed lazily. It is used under the early-commit policy, where nothing
// needs the store's exact completion cycle immediately. Requests are
// counted at placement. An elidable store is a spill held in the store
// buffer for possible dead-store elision (the paper's §6 "relaxing
// compatibility" future-work idea): flush skips it, and tryCancel may drop
// it. It returns the store's number, the one the queue entry names.
func (s *memScheduler) deferStore(ready, dep, occ, req int64, entry int, elidable bool) int {
	if s.held == len(s.pend) {
		s.grow()
	}
	n := s.nextStore()
	s.pend[n&(len(s.pend)-1)] = pendStore{ready: ready, dep: dep, occ: occ, req: req, entry: entry, elidable: elidable}
	s.held++
	if !elidable {
		s.pushReady(readyKey{ready, n})
	}
	return n
}

// tryCancel elides pending spill store n if it has not yet issued any
// requests. It returns the elided request count and whether the elision
// succeeded.
func (s *memScheduler) tryCancel(n int) (int64, bool) {
	p := s.store(n)
	if p == nil || p.placed || p.canceled {
		return 0, false
	}
	p.canceled = true
	s.q.Elide(p.entry)
	s.retire() // leaves p's storage as it is
	return p.req, true
}

// finishAll places any still-pending stores (including surviving elidable
// ones — a spill never overwritten must still reach memory) and returns the
// end of the bus's last held interval, or 0: a folded one ended by a decode
// cycle, which the run's last cycle passes.
func (s *memScheduler) finishAll() int64 {
	s.flush(int64(1) << 62)
	for s.held > 0 {
		s.place(s.base)
	}
	if iv := s.bus.Intervals(); len(iv) > 0 {
		return iv[len(iv)-1].End
	}
	return 0
}
