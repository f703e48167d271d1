// Package iq models the four instruction queues of the OOOVA (§2.2).
//
// The A, S and V queues are simple out-of-order issue windows: they "monitor
// the ready status of all instructions held in the queue slots and as soon
// as an instruction is ready, it is sent to the appropriate functional unit"
// — one instruction per queue per cycle.
//
// The M (memory) queue is different: instructions first proceed *in order*
// through a three-stage pipeline — Issue/RF, Range (computing the address
// range the instruction may touch) and Dependence (run-time memory
// disambiguation against previous instructions in the queue) — and only
// then may issue memory requests out of order. The Dependence check is the
// machine's one memory disambiguation: a store the machine places on the
// address bus lazily stays pending in its StoreBuffer until an access
// conflicts with it.
//
// Which earlier accesses a memory instruction conflicts with depends only
// on the trace, so the check does not search for them in every run. A
// queue without a plan finds them through a range index (package rangeidx)
// and, from its Reset, records them as the trace's MemDeps plan
// (Recorded); a queue following a plan (Follow) walks its list for each
// access.
//
// Both queue types keep state sized by the queue, not the trace. An A/S/V
// queue books its issue port from its occupancy window, as hardware
// arbitrates among resident entries only
// (sched.RingWindow.AdmitFirstFree); each M-queue front stage is one
// next-free cycle. The plan is trace-sized: the queue records it once and
// hands it over, and its caller keeps it with the trace.
package iq

import (
	"slices"

	"oovec/internal/rangeidx"
	"oovec/internal/sched"
)

// DefaultSlots is the paper's queue capacity ("All instruction queues are
// set at 16 slots"); the OOOVA-128 configuration uses 128.
const DefaultSlots = 16

// Slots is the occupancy window every queue admits through: decode stalls
// on it, and the simulator samples it, through whichever queue an
// instruction enters.
type Slots struct {
	window *sched.RingWindow
}

// AdmitConstraint returns the earliest cycle a new instruction can be
// admitted (decode stalls until the queue has a slot).
func (s *Slots) AdmitConstraint() int64 { return s.window.FreeAt() }

// Occupied returns the number of queue slots held at the given cycle.
func (s *Slots) Occupied(now int64) int { return s.window.Occupied(now) }

// Reserve does nothing: the queue is sized by its capacity.
func (s *Slots) Reserve(int) {}

// Queue is an A/S/V-style out-of-order issue queue.
type Queue struct {
	Slots
	// floor is one past the latest departure of an evicted occupant. Issue
	// books no earlier, so the port stays one-per-cycle for callers that
	// ignore AdmitConstraint; a caller that waits never meets it.
	floor int64
}

// NewQueue returns a queue with the given capacity.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = DefaultSlots
	}
	return &Queue{Slots: Slots{sched.NewRingWindow(capacity)}}
}

// Issue admits an instruction that enters the queue at `enter` and whose
// operands are ready at `ready`, books the 1-per-cycle issue port at the
// first free cycle at or after max(enter, ready), records the slot's
// occupancy, and returns the issue cycle.
//
//ovlint:hotpath called once per queued instruction
func (q *Queue) Issue(enter, ready int64) int64 {
	if q.window.Full() {
		q.floor = max(q.floor, q.window.FreeAt()+1) // the oldest is evicted
	}
	return q.window.AdmitFirstFree(max(enter, ready, q.floor))
}

// Reset empties the queue for reuse, keeping its capacity.
func (q *Queue) Reset() {
	q.window.Reset()
	q.floor = 0
}

// memEntry is the disambiguation record of one memory instruction.
type memEntry struct {
	start, end uint64
	isStore    bool
	busEnd     int64
	// pend is the store buffer's index of a store whose bus occupancy is
	// not yet placed; -1 once the store's bus end is known.
	pend int
}

// maxScan bounds the conflict scan. Entries further back have left the
// queue long ago; with the address bus serialising at one request per cycle
// their requests are necessarily far in the past.
const maxScan = 256

// StoreBuffer holds the stores a machine places on the address bus lazily,
// in ready order (RecordPending). The Dependence check asks it to place a
// pending store an access conflicts with; the buffer books the bus, places
// every store ready before that one first, and reports each bus end back
// with SetBusEnd.
type StoreBuffer interface {
	PlaceStore(pend int)
}

// MemQueue is the memory instruction queue with its in-order front pipeline
// and its Dependence check.
type MemQueue struct {
	Slots
	// free holds the next free cycle of the in-order one-per-cycle front
	// stages: Issue/RF, Range and Dependence.
	free [3]int64

	entries [maxScan]memEntry
	n       int         // total entries recorded
	scanWin int         //ovlint:config structural size, fixed at construction
	sb      StoreBuffer //ovlint:config the machine's store buffer, attached once at construction

	// deps is the memory-dependence plan of the trace being run (Follow):
	// entry n's Dependence check visits the entries deps lists for it.
	deps *MemDeps //ovlint:config the running trace's plan, attached before the run starts
	// rec is the plan a queue without one records from its Reset: the
	// conflicts its range index found for each entry so far (Recorded).
	rec *MemDeps //ovlint:derived the run's own record from its Reset; Restore drops it, so a resumed run records nothing

	// ranges indexes the byte ranges of the last scanWin entries, entry i
	// in slot i%scanWin and marked if it is a store, so a queue without a
	// plan visits only the overlapping entries. It is built from the live
	// entries at its first use (index).
	ranges *rangeidx.Index //ovlint:derived the ranges of the live entries; Restore drops it and its first use rebuilds it
	found  [maxScan]uint8  //ovlint:config per-check scratch, the entries the range index found
}

// NewMemQueue returns a memory queue with the given capacity, without a
// plan. It records none until its first Reset.
func NewMemQueue(capacity int) *MemQueue {
	if capacity <= 0 {
		capacity = DefaultSlots
	}
	return &MemQueue{Slots: Slots{sched.NewRingWindow(capacity)}, scanWin: min(capacity, maxScan)}
}

// Attach makes sb the store buffer that places the queue's pending stores.
// A queue without one records no pending stores.
func (q *MemQueue) Attach(sb StoreBuffer) { q.sb = sb }

// Follow makes d, a plan of the trace about to run, answer the queue's
// Dependence checks if it covers the queue's window (the queue skips the
// entries it lists from further back). Otherwise, and for nil, the queue
// finds the conflicting entries through its range index, and records
// them from its next Reset. The queue's entries must be that trace's
// memory instructions, so call Follow before the run's Reset or Restore.
func (q *MemQueue) Follow(d *MemDeps) {
	if d != nil && d.win < q.scanWin {
		d = nil
	}
	q.deps = d
}

// Recorded returns the plan the queue recorded since its Reset, at
// exact size, and stops recording. It covers the entries recorded so far,
// so call it at the end of a run. It is nil for a queue that followed a
// plan, was restored or never Reset, or whose accesses averaged more than
// maxPlanConflicts conflicts each.
func (q *MemQueue) Recorded() *MemDeps {
	r := q.rec
	if q.rec = nil; r != nil {
		r = &MemDeps{first: slices.Clone(r.first), back: slices.Clone(r.back), win: r.win}
	}
	return r
}

// Advance pushes an instruction entering the queue at `enter` through the
// three in-order front stages and returns the cycle it leaves the
// Dependence stage (after which it may issue out of order).
//
//ovlint:hotpath called once per memory instruction
func (q *MemQueue) Advance(enter int64) int64 {
	for i := range q.free {
		enter = max(enter, q.free[i]) + 1
		q.free[i] = enter
	}
	return enter
}

// ConflictConstraint performs the Dependence-stage check: it returns the
// earliest cycle this access (byte range [start, end], store flag) may
// issue, given the previous memory instructions in the queue. An access
// conflicts with an earlier one when their ranges overlap and at least one
// of the two is a store; the younger access must then wait until the older
// one has issued all its requests. Conflicting entries are visited oldest
// first, so the store buffer places conflicting pending stores in age
// order. A queue following or recording a plan takes the access to be the
// trace's next memory instruction.
//
//ovlint:hotpath the check runs once per memory instruction
func (q *MemQueue) ConflictConstraint(start, end uint64, isStore bool) int64 {
	var backs []uint8
	if q.deps != nil {
		backs = q.deps.Conflicts(q.n)
	} else {
		backs = q.overlapping(q.found[:0], start, end, isStore)
		if r := q.rec; r != nil && r.Len() == q.n {
			r.add(backs)
		}
	}
	var at int64
	for _, b := range backs {
		if int(b) >= q.scanWin {
			continue // a wider queue's plan
		}
		e := &q.entries[(q.n-1-int(b))%maxScan]
		if e.pend >= 0 {
			// The older conflicting store must issue first.
			q.sb.PlaceStore(e.pend)
		}
		at = max(at, e.busEnd)
	}
	return at
}

// overlapping appends to dst, oldest first, the entries among the last
// scanWin that an access over [start, end] conflicts with, each as its
// distance back from entry n, minus one. The range index finds them, and
// keeps only stores for a load; only an inverted range (start > end), for
// which it returns every live entry, depends on the overlap test here.
func (q *MemQueue) overlapping(dst []uint8, start, end uint64, isStore bool) []uint8 {
	// Entry n-scanWin (negative, and its slot empty, before the window
	// fills) sits in slot first, the next entry's; slots first.. hold the
	// oldest entries, slots 0..first-1 the younger ones after them.
	over := q.index().Query(start, end, !isStore)
	first := q.n % q.scanWin
	for slot := rangeidx.Next(over, first); slot >= 0; slot = rangeidx.Next(over, slot+1) {
		dst = q.appendOverlap(dst, q.scanWin-1-slot+first, start, end)
	}
	for slot := rangeidx.Next(over, 0); slot >= 0 && slot < first; slot = rangeidx.Next(over, slot+1) {
		dst = q.appendOverlap(dst, first-1-slot, start, end)
	}
	return dst
}

// appendOverlap appends back to dst if [start, end] overlaps the range of
// the entry back+1 before entry n.
func (q *MemQueue) appendOverlap(dst []uint8, back int, start, end uint64) []uint8 {
	if e := &q.entries[(q.n-1-back)%maxScan]; e.start <= end && start <= e.end {
		dst = append(dst, uint8(back))
	}
	return dst
}

// Record registers an issued memory access for later disambiguation and
// books its queue slot (the slot frees when the instruction proceeds to
// issue requests, at busStart).
//
//ovlint:hotpath called once per memory instruction
func (q *MemQueue) Record(start, end uint64, isStore bool, busStart, busEnd int64) {
	q.record(start, end, isStore, busEnd, -1)
	q.window.Admit(busStart)
}

// RecordPending registers a store whose bus occupancy the store buffer
// places later, as its store number pend, books its queue slot until
// leaveAt, and returns the store's entry number for SetBusEnd and Elide.
//
//ovlint:hotpath called once per deferred store
func (q *MemQueue) RecordPending(start, end uint64, pend int, leaveAt int64) int {
	q.record(start, end, true, 0, pend)
	q.window.Admit(leaveAt)
	return q.n - 1
}

// record appends an entry to the ring, and to the range index of a queue
// without a plan. A queue recording a plan lists the entry's conflicts
// first, if no Dependence check did (an eliminated load skips it), and
// stops recording once its entries average more than maxPlanConflicts.
func (q *MemQueue) record(start, end uint64, isStore bool, busEnd int64, pend int) {
	if q.deps == nil {
		if r := q.rec; r != nil {
			if r.Len() == q.n { // no Dependence check listed the entry
				r.add(q.overlapping(q.found[:0], start, end, isStore))
			}
			if len(r.back) > maxPlanConflicts*r.Len() {
				q.rec = nil
			}
		}
		q.index().Insert(q.n%q.scanWin, start, end, isStore) // replaces entry n-scanWin
	}
	q.entries[q.n%maxScan] = memEntry{start: start, end: end, isStore: isStore, busEnd: busEnd, pend: pend}
	q.n++
}

// SetBusEnd records the bus end of the placed pending store with entry
// number entry. An entry that has left the ring needs nothing.
func (q *MemQueue) SetBusEnd(entry int, busEnd int64) {
	if entry >= q.n-maxScan {
		e := &q.entries[entry%maxScan]
		e.busEnd, e.pend = busEnd, -1
	}
}

// Elide neutralises the pending store with entry number entry, which the
// store buffer dropped before it issued: a dead store orders nothing. The
// entry keeps its range, so the range index and a plan list it as a
// linear scan does; its bus end of 0 and no pending store leave every
// check that visits it unchanged.
func (q *MemQueue) Elide(entry int) {
	if entry >= q.n-maxScan {
		e := &q.entries[entry%maxScan]
		e.busEnd, e.pend = 0, -1
	}
}

// index returns the range index, built from the live entries at its first
// use.
func (q *MemQueue) index() *rangeidx.Index {
	if q.ranges == nil {
		q.buildRanges()
	}
	return q.ranges
}

// buildRanges indexes the live entries in a new index.
//
//ovlint:coldpath once per queue without a plan, or per restore of one
func (q *MemQueue) buildRanges() {
	q.ranges = rangeidx.New(q.scanWin)
	for i := max(q.n-q.scanWin, 0); i < q.n; i++ {
		e := &q.entries[i%maxScan]
		q.ranges.Insert(i%q.scanWin, e.start, e.end, e.isStore)
	}
}

// Reset empties the queue and its front pipeline for reuse. A queue
// without a plan starts recording one.
func (q *MemQueue) Reset() {
	q.window.Reset()
	q.free = [3]int64{}
	if q.ranges != nil {
		q.ranges.Reset()
	}
	q.n = 0
	q.rec = nil
	if q.deps == nil {
		q.rec = &MemDeps{first: []uint32{0}, win: q.scanWin}
	}
}
