// Package rob models the OOOVA reorder buffer's timing behaviour: a
// 64-entry FIFO that instructions enter at decode and leave at commit, in
// strict program order, with up to four commits per cycle (§2.2).
//
// Two commit policies exist (§2.2 "Commit Strategy" and §5):
//
//   - Early: a reorder-buffer slot is marked ready to commit when the
//     instruction *begins* execution; physical registers are released as
//     soon as the slot reaches the head. Fast, but imprecise on exceptions.
//
//   - Late: a slot is ready only when the instruction has *fully
//     completed*; additionally, stores execute only at the head of the
//     buffer. This recovers precise architectural state at any instruction
//     boundary, enabling precise traps and virtual memory.
//
// The functional contents of ROB entries (the rename records used for
// rollback) live in package rename; this package computes commit cycles.
//
// Commit cycles never decrease, so one ring of the last max(size, width)
// holds them sorted: the commit `size` back is the admission constraint,
// the commit `width` back the width limit, and the slots held at a cycle
// are a suffix of the ring, tracked by a derived cursor.
package rob

import (
	"math"
	"sort"
)

// Paper parameters.
const (
	// DefaultSize is the paper's reorder buffer capacity.
	DefaultSize = 64
	// DefaultWidth is the paper's maximum commits per cycle.
	DefaultWidth = 4
)

// Policy selects the commit strategy.
type Policy uint8

const (
	// PolicyEarly releases state when execution begins (§2.2).
	PolicyEarly Policy = iota
	// PolicyLate commits only after completion and holds stores to the
	// head of the buffer (§5, precise traps).
	PolicyLate
)

// String names the policy.
func (p Policy) String() string {
	if p == PolicyLate {
		return "late"
	}
	return "early"
}

// ROB computes commit times for an in-order, width-limited commit stage.
type ROB struct {
	size  int     //ovlint:config structural size, fixed at construction
	width int     //ovlint:config structural size, fixed at construction
	ring  []int64 // the last max(size, width) commit cycles
	count int     // commits in the ring
	ri    int     // ring index of the next commit
	last  int64   //ovlint:derived the newest commit in the ring; Restore reads it back
	res   int     //ovlint:derived slots held at asOf, the newest of the ring; Restore recounts it
	asOf  int64   //ovlint:derived cycle res is current for; Restore recounts it
}

// New returns a ROB with the given capacity and commit width.
func New(size, width int) *ROB {
	if size <= 0 {
		size = DefaultSize
	}
	if width <= 0 {
		width = DefaultWidth
	}
	return &ROB{size: size, width: width, ring: make([]int64, max(size, width)), asOf: math.MinInt64}
}

// back returns the ring index of the commit k before the next, 0 <= k <= len(ring).
// It wraps without a branch: i>>63 is all ones exactly when i is negative.
func (r *ROB) back(k int) int {
	i := r.ri - k
	return i + len(r.ring)&(i>>63)
}

// AdmitConstraint returns the earliest cycle a new instruction may be
// allocated a slot: immediately if the buffer has spare capacity, otherwise
// the commit cycle of the oldest in-flight instruction.
func (r *ROB) AdmitConstraint() int64 {
	if r.count < r.size {
		return 0
	}
	return r.ring[r.back(r.size)]
}

// Commit records the next instruction's commit given the cycle it becomes
// ready to commit, enforcing program order and the commit width, and books
// its slot occupancy. It returns the commit cycle.
//
//ovlint:hotpath called once per dynamic instruction
func (r *ROB) Commit(ready int64) int64 {
	c := max(ready+1, r.last) // a cycle after readiness, never before an older commit
	if r.count >= r.width {
		// At most `width` commits per cycle: the instruction `width` back
		// must have committed strictly earlier.
		c = max(c, r.ring[r.back(r.width)]+1)
	}
	r.ring[r.ri] = c
	if r.ri++; r.ri == len(r.ring) {
		r.ri = 0
	}
	r.count = min(r.count+1, len(r.ring))
	r.last = c
	r.res = min(r.res+b2i(c > r.asOf), r.size) // a full buffer evicts its oldest slot
	return c
}

// LastCommit returns the most recent commit cycle (the cycle at which the
// previous instruction left the buffer — i.e. when the next one reaches the
// head).
func (r *ROB) LastCommit() int64 { return r.last }

// Size returns the capacity.
func (r *ROB) Size() int { return r.size }

// Occupied returns the number of buffer slots held at the given cycle: the
// last size commits after now. It is exact for any sequence of calls and
// O(1) amortised while now does not decrease.
//
//ovlint:hotpath sampled once per instruction for the occupancy histogram
func (r *ROB) Occupied(now int64) int {
	if now < r.asOf {
		r.recount(now)
	}
	r.asOf = now
	// The residents, the newest res commits, are sorted, so those that left
	// by now are the oldest.
	res := r.res
	for res > 0 && r.ring[r.back(res)] <= now {
		res--
	}
	r.res = res
	return res
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// recount sets the slots held at now by binary search.
//
//ovlint:coldpath runs on Restore and on a query earlier than the previous one, never in a simulator's steady state
func (r *ROB) recount(now int64) {
	n := min(r.count, r.size)
	r.res = n - sort.Search(n, func(j int) bool { return r.ring[r.back(n-j)] > now })
	r.asOf = now
}

// Reset empties the buffer for reuse, keeping its capacity and width.
func (r *ROB) Reset() {
	clear(r.ring)
	r.count, r.ri, r.last = 0, 0, 0
	r.res, r.asOf = 0, math.MinInt64
}
