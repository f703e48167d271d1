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
// then may issue memory requests out of order.
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

// Queue is an A/S/V-style out-of-order issue queue.
type Queue struct {
	window *sched.RingWindow
	// floor is one past the latest departure of an evicted occupant. Issue
	// books no earlier, so the port stays one-per-cycle for callers that
	// ignore AdmitConstraint; a caller that waits never meets it.
	floor int64

	issued int64
}

// NewQueue returns a queue with the given capacity.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = DefaultSlots
	}
	return &Queue{window: sched.NewRingWindow(capacity)}
}

// AdmitConstraint returns the earliest cycle a new instruction can be
// admitted (decode stalls until the queue has a slot).
func (q *Queue) AdmitConstraint() int64 { return q.window.FreeAt() }

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
	t := q.window.AdmitFirstFree(max(enter, ready, q.floor))
	q.issued++
	return t
}

// Issued returns the number of instructions issued.
func (q *Queue) Issued() int64 { return q.issued }

// Occupied returns the number of queue slots held at the given cycle.
func (q *Queue) Occupied(now int64) int { return q.window.Occupied(now) }

// Reserve does nothing: the queue is sized by its capacity.
func (q *Queue) Reserve(int) {}

// Reset empties the queue for reuse, keeping its capacity.
func (q *Queue) Reset() {
	q.window.Reset()
	q.floor = 0
	q.issued = 0
}

// memEntry is the disambiguation record of one memory instruction.
type memEntry struct {
	start, end uint64
	isStore    bool
	busEnd     int64
}

// maxScan bounds the conflict scan. Entries further back have left the
// queue long ago; with the address bus serialising at one request per cycle
// their requests are necessarily far in the past.
const maxScan = 256

// MemQueue is the memory instruction queue with its in-order front pipeline
// and range-based disambiguation.
type MemQueue struct {
	window *sched.RingWindow
	// free holds the next free cycle of the in-order one-per-cycle front
	// stages: Issue/RF, Range and Dependence.
	free [3]int64

	entries [maxScan]memEntry
	n       int // total entries recorded
	scanWin int //ovlint:config structural size, fixed at construction

	// ranges indexes the byte ranges of the last scanWin entries, access i
	// in slot i%scanWin and marked if it is a store, so the Dependence
	// check visits only the overlapping entries. It is allocated at the
	// first Record: a queue that only books slots (Admit) has none.
	ranges *rangeidx.Index //ovlint:derived the ranges of the live entries; Restore rebuilds it

	conflicts int64
}

// NewMemQueue returns a memory queue with the given capacity.
func NewMemQueue(capacity int) *MemQueue {
	if capacity <= 0 {
		capacity = DefaultSlots
	}
	return &MemQueue{window: sched.NewRingWindow(capacity), scanWin: min(capacity, maxScan)}
}

// AdmitConstraint returns the earliest cycle a new memory instruction can be
// admitted to the queue.
func (q *MemQueue) AdmitConstraint() int64 { return q.window.FreeAt() }

// Reserve does nothing: the queue is sized by its capacity.
func (q *MemQueue) Reserve(int) {}

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
// one has issued all its requests.
//
//ovlint:hotpath the check runs once per memory instruction
func (q *MemQueue) ConflictConstraint(start, end uint64, isStore bool) int64 {
	if q.ranges == nil {
		return 0 // nothing recorded
	}
	// A load conflicts only with stores. The oldest live entry, lo, sits in
	// slot first; slots below first hold the entries younger than slot
	// scanWin-1's.
	over := q.ranges.Query(start, end, !isStore)
	lo := max(q.n-q.scanWin, 0)
	first := lo % q.scanWin
	var at int64
	for slot := rangeidx.Next(over, 0); slot >= 0; slot = rangeidx.Next(over, slot+1) {
		i := lo - first + slot
		if slot < first {
			i += q.scanWin
		}
		e := &q.entries[i%maxScan]
		if (isStore || e.isStore) && e.start <= end && start <= e.end {
			at = max(at, e.busEnd)
		}
	}
	if at > 0 {
		q.conflicts++
	}
	return at
}

// Record registers an issued memory access for later disambiguation and
// books its queue slot (the slot frees when the instruction proceeds to
// issue requests, at busStart).
//
//ovlint:hotpath called once per memory instruction
func (q *MemQueue) Record(start, end uint64, isStore bool, busStart, busEnd int64) {
	q.entries[q.n%maxScan] = memEntry{start: start, end: end, isStore: isStore, busEnd: busEnd}
	if q.ranges == nil {
		q.rebuildRanges()
	}
	q.ranges.Insert(q.n%q.scanWin, start, end, isStore) // replaces entry n-scanWin
	q.n++
	q.window.Admit(busStart)
}

// rebuildRanges indexes the live entries, allocating the index on first
// use.
//
//ovlint:coldpath once per queue, at its first Record, or per restore
func (q *MemQueue) rebuildRanges() {
	if q.ranges == nil {
		q.ranges = rangeidx.New(q.scanWin)
	} else {
		q.ranges.Reset()
	}
	for i := max(q.n-q.scanWin, 0); i < q.n; i++ {
		e := &q.entries[i%maxScan]
		q.ranges.Insert(i%q.scanWin, e.start, e.end, e.isStore)
	}
}

// Admit books a queue slot without a disambiguation record; callers that
// track disambiguation themselves use this to model slot occupancy only.
// The slot frees when the instruction leaves the queue (issues requests).
func (q *MemQueue) Admit(leaveAt int64) { q.window.Admit(leaveAt) }

// Occupied returns the number of queue slots held at the given cycle.
func (q *MemQueue) Occupied(now int64) int { return q.window.Occupied(now) }

// Conflicts returns the number of accesses delayed by disambiguation.
func (q *MemQueue) Conflicts() int64 { return q.conflicts }

// Reset empties the queue and its front pipeline for reuse.
func (q *MemQueue) Reset() {
	q.window.Reset()
	q.free = [3]int64{}
	if q.ranges != nil {
		q.ranges.Reset()
	}
	q.n = 0
	q.conflicts = 0
}
