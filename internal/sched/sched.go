// Package sched provides the cycle-interval resource allocators both
// simulators are built on.
//
// Every hardware resource whose busy intervals a breakdown reads — a
// functional unit, the memory address bus — is modelled as an allocator of
// cycle intervals. The simulators process the trace in program order and
// ask each resource for the earliest feasible interval subject to the
// instruction's readiness time. Two allocation disciplines exist:
//
//   - Monotonic: reservations never start before the end of the previous
//     reservation. This models in-order resources (the reference machine's
//     units, the shared address bus seen by an in-order memory unit).
//
//   - Gap: reservations may backfill earlier unused holes. This models
//     out-of-order issue: when a younger instruction is ready before an
//     older one, it may claim an earlier slot. Because the simulators
//     process instructions oldest-first, older instructions always get
//     first choice — exactly the oldest-ready-first heuristic of real
//     issue logic.
//
// Both allocators hold a busy interval only until a state breakdown has
// counted it: a machine folds every interval ending at or before a floor no
// later booking starts below into metrics.StateBreakdown, and Drop forgets
// them, changing no later answer. What remains is sized by the machine's
// in-flight work, so Gap finds a hole by walking back from its last one.
//
// RingWindow bounds an issue queue's occupants and answers the
// per-instruction occupancy sample. Its occupancy
// contract: Occupied(now) is exact for any sequence of Admit and Occupied
// calls, and costs O(1) amortised while now does not decrease from one
// query to the next — the simulators query at each instruction's decode
// cycle, which strictly increases. Departures are tracked as events, not
// recounted: a query pops the departures it has passed, and a query at an
// earlier cycle rebuilds the events from the ring (a sort of at most
// capacity departures). Admit files a departure in order, shifting it past
// the residents departing later. The event state is derived: Restore and
// Reset rebuild it and checkpoints never carry it.
//
// AdmitFirstFree books an issue port, which needs no history, from the same
// run: the first cycle at or after at on which no tracked occupant departs.
// That equals a full-history Gap booking exactly when every evicted occupant
// departed before at. It holds for a queue whose decode waits for FreeAt and
// whose occupants enter after decode: occupant j departs by the decode of
// occupant j+N, so every evicted occupant departed by the current decode.
package sched

import (
	"math"
	"slices"
)

// Interval is a half-open busy interval [Start, End).
type Interval struct {
	Start, End int64
}

// Monotonic is an in-order allocator: each reservation starts at
// max(earliest, end of previous reservation).
type Monotonic struct {
	nextFree int64
	iv       []Interval
}

// NewMonotonic returns an empty in-order allocator.
func NewMonotonic() *Monotonic { return &Monotonic{} }

// Allocate books dur (at least one) consecutive cycles starting no earlier
// than earliest and returns the start cycle.
//
//ovlint:hotpath books one interval per instruction; appends stay within the capacity the held bookings reached before
func (m *Monotonic) Allocate(earliest, dur int64) int64 {
	dur = max(dur, 1)
	start := max(earliest, m.nextFree)
	m.nextFree = start + dur
	if n := len(m.iv); n > 0 && m.iv[n-1].End == start {
		m.iv[n-1].End = start + dur
	} else {
		m.iv = append(m.iv, Interval{start, start + dur})
	}
	return start
}

// NextFree returns the end of the last reservation.
func (m *Monotonic) NextFree() int64 { return m.nextFree }

// Reserve grows the interval storage to hold at least n intervals without
// further allocation.
func (m *Monotonic) Reserve(n int) { m.iv = slices.Grow(m.iv, max(n-len(m.iv), 0)) }

// Intervals returns the held intervals, sorted and disjoint (adjacent
// intervals are merged). The caller must not mutate it.
func (m *Monotonic) Intervals() []Interval { return m.iv }

// Drop forgets the held intervals that end at or before cycle t, which a
// state breakdown has counted. NextFree is kept.
func (m *Monotonic) Drop(t int64) { m.iv = drop(m.iv, t) }

// Reset clears all bookings. The interval storage is kept (and its
// contents overwritten by later bookings), so slices returned by Intervals
// before the Reset are invalidated.
func (m *Monotonic) Reset() {
	m.nextFree = 0
	m.iv = m.iv[:0]
}

// Gap is an out-of-order allocator that keeps a sorted, disjoint list of
// busy intervals and books the first hole large enough.
type Gap struct {
	iv []Interval
}

// NewGap returns an empty gap allocator.
func NewGap() *Gap { return &Gap{} }

// Allocate finds the earliest hole of length dur (at least one) starting at
// or after earliest, books it and returns its start.
//
//ovlint:hotpath books one interval per instruction; appends stay within the capacity the held bookings reached before
func (g *Gap) Allocate(earliest, dur int64) int64 {
	dur = max(dur, 1)
	start, i := g.findHole(earliest, dur)
	g.insert(i, Interval{start, start + dur})
	return start
}

// Peek returns the start Allocate would choose, without booking.
//
//ovlint:hotpath probed several times per memory instruction
func (g *Gap) Peek(earliest, dur int64) int64 {
	dur = max(dur, 1)
	start, _ := g.findHole(earliest, dur)
	return start
}

// findHole locates the earliest hole of length dur at or after earliest and
// returns its start plus the insertion index. The search walks back from the
// last held interval to the first that ends after earliest: requests ask for
// cycles near the latest bookings, and the held list is machine-sized.
func (g *Gap) findHole(earliest, dur int64) (int64, int) {
	i := len(g.iv)
	for i > 0 && g.iv[i-1].End > earliest {
		i--
	}
	start := earliest
	for ; i < len(g.iv); i++ {
		if start+dur <= g.iv[i].Start {
			break // hole before interval i fits
		}
		start = max(start, g.iv[i].End)
	}
	return start, i
}

// insert places iv at position i, merging with neighbours when adjacent.
func (g *Gap) insert(i int, nv Interval) {
	// Merge with predecessor?
	if i > 0 && g.iv[i-1].End == nv.Start {
		g.iv[i-1].End = nv.End
		// Merge with successor too?
		if i < len(g.iv) && g.iv[i].Start == g.iv[i-1].End {
			g.iv[i-1].End = g.iv[i].End
			g.iv = append(g.iv[:i], g.iv[i+1:]...)
		}
		return
	}
	// Merge with successor?
	if i < len(g.iv) && g.iv[i].Start == nv.End {
		g.iv[i].Start = nv.Start
		return
	}
	g.iv = append(g.iv, Interval{})
	copy(g.iv[i+1:], g.iv[i:])
	g.iv[i] = nv
}

// Reserve grows the interval storage to hold at least n intervals without
// further allocation.
func (g *Gap) Reserve(n int) { g.iv = slices.Grow(g.iv, max(n-len(g.iv), 0)) }

// Drop forgets the held intervals that end at or before cycle t, which a
// state breakdown has counted. Every later request must be for a cycle at
// or after t, so none of their holes could be chosen again.
func (g *Gap) Drop(t int64) { g.iv = drop(g.iv, t) }

// drop returns iv without the intervals that end at or before t, in the
// same storage.
func drop(iv []Interval, t int64) []Interval {
	n := 0
	for n < len(iv) && iv[n].End <= t {
		n++
	}
	return iv[:copy(iv, iv[n:])]
}

// Intervals returns the held intervals, sorted and disjoint (adjacent
// intervals are merged). The caller must not mutate it.
func (g *Gap) Intervals() []Interval { return g.iv }

// Reset clears all bookings. The interval storage is kept (and its
// contents overwritten by later bookings), so slices returned by Intervals
// before the Reset are invalidated.
func (g *Gap) Reset() { g.iv = g.iv[:0] }

// RingWindow tracks the departure times of the last N occupants of a
// bounded structure (an issue queue). Entry i may only be
// admitted once occupant i-N has departed; FreeAt returns that constraint.
//
// Occupancy follows the package's occupancy contract: dep[lo:hi] holds, in
// ascending order, the departure times of the tracked occupants still
// resident at cycle asOf.
type RingWindow struct {
	leave []int64
	n     int //ovlint:config capacity, fixed at construction; Restore checks the state's ring length against it
	next  int
	count int

	dep    []int64 //ovlint:derived sorted resident departures, rebuilt from leave by Restore
	lo, hi int     //ovlint:derived bounds of the resident run in dep, rebuilt by Restore
	asOf   int64   //ovlint:derived cycle dep is current for, rebuilt by Restore
}

// NewRingWindow returns a window of capacity n (n <= 0 means unbounded).
func NewRingWindow(n int) *RingWindow {
	if n <= 0 {
		return &RingWindow{asOf: math.MinInt64}
	}
	return &RingWindow{leave: make([]int64, n), n: n, dep: make([]int64, 2*n), asOf: math.MinInt64}
}

// Full reports whether the next admission evicts the oldest occupant.
func (w *RingWindow) Full() bool { return w.n > 0 && w.count == w.n }

// FreeAt returns the earliest cycle a new occupant may be admitted: 0 if the
// structure has spare capacity, otherwise the departure time of the oldest
// tracked occupant.
func (w *RingWindow) FreeAt() int64 {
	if !w.Full() {
		return 0
	}
	return w.leave[w.next]
}

// Admit records a new occupant that will depart at the given cycle.
// Departure times must be recorded for every occupant; they need not be
// monotonic (out-of-order issue), but the capacity constraint uses admission
// order, matching a hardware structure freed in allocation order.
func (w *RingWindow) Admit(departAt int64) {
	if w.n == 0 {
		return
	}
	if w.count == w.n {
		if old := w.leave[w.next]; old > w.asOf {
			w.drop(old) // evicted while still counted resident
		}
	} else {
		w.count++
	}
	w.leave[w.next] = departAt
	w.next++
	if w.next == w.n {
		w.next = 0
	}
	if departAt > w.asOf {
		w.add(departAt)
	}
}

// AdmitFirstFree admits an occupant departing at the first cycle at or after
// at on which no tracked occupant departs, and returns that cycle (see the
// package comment). An unbounded window tracks nothing and returns at.
//
//ovlint:hotpath books the issue port once per queued instruction
func (w *RingWindow) AdmitFirstFree(at int64) int64 {
	if at <= w.asOf {
		w.rebuild(at - 1) // the run must hold every departure at or after at
	}
	t := at
	k, _ := slices.BinarySearch(w.dep[w.lo:w.hi], at)
	for k += w.lo; k < w.hi && w.dep[k] <= t; k++ {
		t = max(t, w.dep[k]+1)
	}
	w.Admit(t)
	return t
}

// add inserts departure time v into the sorted resident run.
func (w *RingWindow) add(v int64) {
	if w.hi == len(w.dep) {
		// At most n-1 residents remain besides v, so compacting to the
		// front of the 2n buffer frees at least n+1 slots: amortised O(1).
		w.hi = copy(w.dep, w.dep[w.lo:w.hi])
		w.lo = 0
	}
	i := w.hi
	for i > w.lo && w.dep[i-1] > v {
		w.dep[i] = w.dep[i-1]
		i--
	}
	w.dep[i] = v
	w.hi++
}

// drop removes one occurrence of departure time v from the resident run by
// shifting the residents before it up one slot. The evicted occupant is the
// oldest, which in a buffer freed in order is also the first to depart, so
// v is usually at the front.
func (w *RingWindow) drop(v int64) {
	i := w.lo
	for w.dep[i] != v {
		i++
	}
	copy(w.dep[w.lo+1:i+1], w.dep[w.lo:i])
	w.lo++
}

// Occupied returns the number of tracked occupants still resident at the
// given cycle: those admitted but not yet departed (leave time > now).
// Unbounded windows report zero. It is exact for any sequence of calls and
// O(1) amortised while now does not decrease (see the package comment).
//
//ovlint:hotpath sampled once per instruction for occupancy histograms; pops departures in place, no allocation
func (w *RingWindow) Occupied(now int64) int {
	if now < w.asOf {
		w.rebuild(now)
	}
	w.asOf = now
	for w.lo < w.hi && w.dep[w.lo] <= now {
		w.lo++
	}
	return w.hi - w.lo
}

// rebuild recomputes the resident run as of cycle now from the ring.
//
//ovlint:coldpath runs on Restore and on a query earlier than the previous one, never in a simulator's steady state
func (w *RingWindow) rebuild(now int64) {
	w.asOf = now
	w.lo, w.hi = 0, 0
	for _, l := range w.leave[:w.count] {
		if l > now {
			w.dep[w.hi] = l
			w.hi++
		}
	}
	slices.Sort(w.dep[:w.hi])
}

// Reset clears the window.
func (w *RingWindow) Reset() {
	w.next, w.count = 0, 0
	w.lo, w.hi = 0, 0
	w.asOf = math.MinInt64
}
