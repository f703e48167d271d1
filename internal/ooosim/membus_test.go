package ooosim

import (
	"math/rand"
	"slices"
	"testing"

	"oovec/internal/iq"
	"oovec/internal/isa"
	"oovec/internal/sched"
)

// linearMemScheduler is the reference for the M queue (iq.MemQueue) and
// its store buffer (memScheduler): the same arbitration with flush as a
// linear scan over every pending store for the oldest-ready one (ties by
// age), and the Dependence check as a linear scan over its own copy of the
// disambiguation ring. It is the definition the heap-ordered, range-indexed
// pair must reproduce exactly, kept here as an executable spec.
type linearMemScheduler struct {
	bus     *sched.Gap
	pend    []pendStore
	entries [linearRing]linearEntry
	n       int
	scanWin int

	requests, lastEnd int64
}

// linearEntry is the reference's disambiguation record of one access.
type linearEntry struct {
	rstart, rend uint64
	isStore      bool
	busEnd       int64
	pendIdx      int // >= 0 while the store is still pending
}

// linearRing is the length of the M queue's disambiguation ring.
const linearRing = 256

func newLinearMemScheduler(queueSlots int) *linearMemScheduler {
	return &linearMemScheduler{bus: sched.NewGap(), scanWin: min(queueSlots, linearRing)}
}

func (s *linearMemScheduler) note(end int64) {
	if end > s.lastEnd {
		s.lastEnd = end
	}
}

func (s *linearMemScheduler) flush(threshold int64) {
	for {
		best := -1
		for i := range s.pend {
			p := &s.pend[i]
			if p.placed || p.ready > threshold {
				continue
			}
			if best < 0 || p.ready < s.pend[best].ready {
				best = i
			}
		}
		if best < 0 {
			return
		}
		s.place(best)
	}
}

func (s *linearMemScheduler) place(i int) {
	p := &s.pend[i]
	if p.placed {
		return
	}
	start := s.bus.Allocate(p.ready, p.occ)
	p.placed = true
	s.requests += p.req
	if p.entry >= s.n-linearRing {
		e := &s.entries[p.entry%linearRing]
		e.busEnd = start + p.occ
		e.pendIdx = -1
	}
	s.note(start + p.occ)
}

func (s *linearMemScheduler) conflictConstraint(rstart, rend uint64, isStore bool) int64 {
	var at int64
	for i := max(s.n-s.scanWin, 0); i < s.n; i++ {
		e := &s.entries[i%linearRing]
		if !(isStore || e.isStore) || !(e.rstart <= rend && rstart <= e.rend) {
			continue
		}
		if e.pendIdx >= 0 && !s.pend[e.pendIdx].placed {
			idx := e.pendIdx
			s.flush(s.pend[idx].ready)
			s.place(idx)
		}
		at = max(at, e.busEnd)
	}
	return at
}

func (s *linearMemScheduler) record(rstart, rend uint64, isStore bool, busEnd int64, pendIdx int) int {
	s.entries[s.n%linearRing] = linearEntry{
		rstart: rstart, rend: rend, isStore: isStore, busEnd: busEnd, pendIdx: pendIdx,
	}
	s.n++
	return s.n - 1
}

func (s *linearMemScheduler) placeNow(ready, occ, req int64, rstart, rend uint64, isStore bool) int64 {
	s.flush(ready)
	busStart := s.bus.Allocate(ready, occ)
	s.requests += req
	s.record(rstart, rend, isStore, busStart+occ, -1)
	s.note(busStart + occ)
	return busStart
}

func (s *linearMemScheduler) deferStore(ready, occ, req int64, rstart, rend uint64) {
	entry := s.record(rstart, rend, true, 0, len(s.pend))
	s.pend = append(s.pend, pendStore{ready: ready, occ: occ, req: req, entry: entry})
}

func (s *linearMemScheduler) finishAll() { s.flush(int64(1) << 62) }

// randAccessRange draws the byte range of one access. Most are small and
// crowd a few 4 KiB blocks, so they overlap often; the rest are the cases
// the scheduler's range index treats apart: ranges at address 0, ranges
// straddling a block boundary, gather-sized and other ranges over more
// than two blocks, and small ranges in distant blocks, which share buckets
// of the index without overlapping.
func randAccessRange(r *rand.Rand) (uint64, uint64) {
	const gather = 2 * isa.MaxVL * isa.MaxVL // the span MemRange gives a gather
	switch k := r.Intn(20); {
	case k < 10:
		s := uint64(r.Intn(8192))
		return s, s + uint64(r.Intn(512))
	case k < 11:
		return 0, uint64(r.Intn(4096))
	case k < 14:
		s := uint64(1+r.Intn(3))<<12 - uint64(1+r.Intn(128))
		return s, s + uint64(r.Intn(256))
	case k < 16:
		s := uint64(r.Intn(16384))
		return s, s + uint64(2*4096+r.Intn(gather))
	default:
		s := uint64(r.Intn(512))<<16 + uint64(r.Intn(4096))
		return s, s + uint64(r.Intn(64))
	}
}

// memPair is the machine's M queue and its store buffer, driven as
// execMem drives them.
type memPair struct {
	q *iq.MemQueue
	s *memScheduler
}

func newMemPair(slots int) memPair {
	q := iq.NewMemQueue(slots)
	return memPair{q: q, s: newMemScheduler(q)}
}

func (m memPair) placeNow(ready, occ, req int64, rstart, rend uint64, isStore bool) int64 {
	busStart := m.s.placeNow(ready, occ, req)
	m.q.Record(rstart, rend, isStore, busStart, busStart+occ)
	return busStart
}

// deferStore defers a store whose Dependence stage is cycle 0: the
// Dependence cycles only feed the fold floor, which this pair never reads.
func (m memPair) deferStore(ready, occ, req int64, rstart, rend uint64) {
	entry := m.q.RecordPending(rstart, rend, m.s.nextStore(), ready)
	m.s.deferStore(ready, 0, occ, req, entry)
}

// TestMemSchedulerMatchesLinearReference drives the M queue with its
// heap-ordered store buffer and the linear-scan reference with the same
// random call sequences — loads, deferred stores (some with data so late
// that they are placed after their M-queue entry has left the ring),
// immediate stores, overlapping conflict probes, eliminated loads and
// snapshot/restore of both into a fresh
// pair at random cut points — and requires identical bus bookings, counters
// and return values after every call. The store buffer holds only the
// stores from the oldest unplaced one on, in a ring that starts small: the
// long-pending stores make it grow, and a restore grows a fresh pair's ring
// to the checkpoint's held stores.
func TestMemSchedulerMatchesLinearReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		slots := []int{4, 16, 128, 300}[r.Intn(4)]
		heap := newMemPair(slots)
		ref := newLinearMemScheduler(slots)
		clock := int64(0)
		steps := 200 + r.Intn(600)
		for step := 0; step < steps; step++ {
			clock += int64(r.Intn(8))
			ready := clock + int64(r.Intn(200)) - 40
			if ready < 0 {
				ready = 0
			}
			occ := int64(1 + r.Intn(70))
			req := occ - 1
			rstart, rend := randAccessRange(r)

			var op string
			var got, want int64
			switch k := r.Intn(100); {
			case k < 25:
				op = "load"
				got = heap.placeNow(ready, occ, req, rstart, rend, false)
				want = ref.placeNow(ready, occ, req, rstart, rend, false)
			case k < 55:
				op = "deferStore"
				if r.Intn(40) == 0 {
					// Data this late keeps the store pending until its
					// M-queue entry has left the ring.
					ready += 1500
				}
				heap.deferStore(ready, occ, req, rstart, rend)
				ref.deferStore(ready, occ, req, rstart, rend)
			case k < 62:
				op = "late store"
				got = heap.placeNow(ready, occ, req, rstart, rend, true)
				want = ref.placeNow(ready, occ, req, rstart, rend, true)
			case k < 88:
				op = "ConflictConstraint"
				isStore := r.Intn(2) == 0
				got = heap.q.ConflictConstraint(rstart, rend, isStore)
				want = ref.conflictConstraint(rstart, rend, isStore)
			case k < 91:
				op = "eliminated load"
				heap.q.Record(rstart, rend, false, ready, ready)
				ref.record(rstart, rend, false, ready, -1)
			default:
				op = "snapshot/restore"
				mst, st := heap.q.Snapshot(), heap.s.snapshot()
				heap = newMemPair(slots)
				if err := heap.q.Restore(mst); err != nil {
					t.Fatalf("seed %d step %d: M queue restore: %v", seed, step, err)
				}
				if err := heap.s.restore(st, &mst); err != nil {
					t.Fatalf("seed %d step %d: store buffer restore: %v", seed, step, err)
				}
			}
			if got != want {
				t.Fatalf("seed %d step %d: %s returned %d, reference %d", seed, step, op, got, want)
			}
			compareMemSchedulers(t, heap, ref, seed, step, op)
		}
		heap.s.finishAll()
		ref.finishAll()
		if heap.s.held != 0 {
			t.Fatalf("seed %d: %d stores held after finishAll", seed, heap.s.held)
		}
		compareMemSchedulers(t, heap, ref, seed, steps, "finishAll")
	}
}

func compareMemSchedulers(t *testing.T, m memPair, ref *linearMemScheduler, seed int64, step int, op string) {
	t.Helper()
	s := m.s
	if !slices.Equal(s.bus.Intervals(), ref.bus.Intervals()) {
		t.Fatalf("seed %d step %d (%s): bus intervals diverge:\n got %v\nwant %v",
			seed, step, op, s.bus.Intervals(), ref.bus.Intervals())
	}
	// The store buffer derives its last bus activity from the bus; the
	// reference tracks it at every booking.
	var lastEnd int64
	if iv := s.bus.Intervals(); len(iv) > 0 {
		lastEnd = iv[len(iv)-1].End
	}
	if s.requests != ref.requests || lastEnd != ref.lastEnd {
		t.Fatalf("seed %d step %d (%s): requests/lastEnd = %d/%d, reference %d/%d",
			seed, step, op, s.requests, lastEnd, ref.requests, ref.lastEnd)
	}
	// The store buffer holds exactly the stores from the oldest one the
	// reference has not placed.
	base := len(ref.pend)
	for i, p := range ref.pend {
		if !p.placed {
			base = i
			break
		}
	}
	if s.base != base || s.nextStore() != len(ref.pend) {
		t.Fatalf("seed %d step %d (%s): store buffer holds stores [%d,%d), reference [%d,%d)",
			seed, step, op, s.base, s.nextStore(), base, len(ref.pend))
	}
}
