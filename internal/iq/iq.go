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
// Both keep state sized by the queue, not the trace. An A/S/V queue books
// its issue port from its occupancy window, as hardware arbitrates among
// resident entries only (sched.RingWindow.AdmitFirstFree); each M-queue
// front stage is one next-free cycle.
package iq

import (
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
// and range-based disambiguation.
type MemQueue struct {
	Slots
	// free holds the next free cycle of the in-order one-per-cycle front
	// stages: Issue/RF, Range and Dependence.
	free [3]int64

	entries [maxScan]memEntry
	n       int         // total entries recorded
	scanWin int         //ovlint:config structural size, fixed at construction
	slot    int         //ovlint:derived n % scanWin, the range-index slot of the next entry; Restore rebuilds it
	sb      StoreBuffer //ovlint:config the machine's store buffer, attached once at construction

	// ranges indexes the byte ranges of the last scanWin entries, entry i
	// in slot i%scanWin and marked if it is a store, so the Dependence
	// check visits only the overlapping entries.
	ranges *rangeidx.Index //ovlint:derived the ranges of the live entries; Restore rebuilds it
}

// NewMemQueue returns a memory queue with the given capacity.
func NewMemQueue(capacity int) *MemQueue {
	if capacity <= 0 {
		capacity = DefaultSlots
	}
	w := min(capacity, maxScan)
	return &MemQueue{Slots: Slots{sched.NewRingWindow(capacity)}, scanWin: w, ranges: rangeidx.New(w)}
}

// Attach makes sb the store buffer that places the queue's pending stores.
// A queue without one records no pending stores.
func (q *MemQueue) Attach(sb StoreBuffer) { q.sb = sb }

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
// one has issued all its requests. Overlapping entries are visited oldest
// first, so the store buffer places conflicting pending stores in age
// order.
//
//ovlint:hotpath the check runs once per memory instruction
func (q *MemQueue) ConflictConstraint(start, end uint64, isStore bool) int64 {
	// A load conflicts only with stores. Entry lo = n-scanWin (negative, and
	// its slots empty, before the window fills) sits in slot first; slots
	// first.. hold lo.., and slots 0..first-1 the younger entries after them.
	over := q.ranges.Query(start, end, !isStore)
	lo, first := q.n-q.scanWin, q.slot
	var at int64
	for slot := rangeidx.Next(over, first); slot >= 0; slot = rangeidx.Next(over, slot+1) {
		at = max(at, q.conflictWith(lo+slot-first, start, end, isStore))
	}
	for slot := rangeidx.Next(over, 0); slot >= 0 && slot < first; slot = rangeidx.Next(over, slot+1) {
		at = max(at, q.conflictWith(lo+q.scanWin-first+slot, start, end, isStore))
	}
	return at
}

// conflictWith checks the access over [start, end] against entry i, an
// overlapping entry the range index returned, and returns the cycle the
// entry's bus occupancy ends if the two conflict, else 0. The check is the
// index's own for a well-formed range; only an inverted one (start > end),
// for which the index returns every live entry, depends on it.
func (q *MemQueue) conflictWith(i int, start, end uint64, isStore bool) int64 {
	e := &q.entries[i%maxScan]
	if !(isStore || e.isStore) || !(e.start <= end && start <= e.end) {
		return 0
	}
	if e.pend >= 0 {
		// The older conflicting store must issue first.
		q.sb.PlaceStore(e.pend)
	}
	return e.busEnd
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

// record appends an entry to the ring and the range index.
func (q *MemQueue) record(start, end uint64, isStore bool, busEnd int64, pend int) {
	q.entries[q.n%maxScan] = memEntry{start: start, end: end, isStore: isStore, busEnd: busEnd, pend: pend}
	q.ranges.Insert(q.slot, start, end, isStore) // replaces entry n-scanWin
	if q.slot++; q.slot == q.scanWin {
		q.slot = 0
	}
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
// store buffer dropped before it issued: a dead store orders nothing.
func (q *MemQueue) Elide(entry int) {
	if entry >= q.n-maxScan {
		e := &q.entries[entry%maxScan]
		e.start, e.end = 1, 0 // empty range: overlaps nothing
		e.busEnd, e.pend = 0, -1
	}
	if back := q.n - entry; back <= q.scanWin {
		slot := q.slot - back
		if slot < 0 {
			slot += q.scanWin
		}
		q.ranges.Remove(slot)
	}
}

// rebuildRanges indexes the live entries in a new index.
//
//ovlint:coldpath once per restore
func (q *MemQueue) rebuildRanges() {
	q.ranges = rangeidx.New(q.scanWin)
	for i := max(q.n-q.scanWin, 0); i < q.n; i++ {
		e := &q.entries[i%maxScan]
		q.ranges.Insert(i%q.scanWin, e.start, e.end, e.isStore)
	}
}

// Reset empties the queue and its front pipeline for reuse.
func (q *MemQueue) Reset() {
	q.window.Reset()
	q.free = [3]int64{}
	q.ranges.Reset()
	q.n, q.slot = 0, 0
}
