// Package sched provides the cycle-interval resource allocators both
// simulators are built on.
//
// Every hardware resource with occupancy — a functional unit, the memory
// address bus, an issue port — is modelled as an allocator of cycle
// intervals. The simulators process the trace in program order and ask each
// resource for the earliest feasible interval subject to the instruction's
// readiness time. Two allocation disciplines exist:
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
// Both allocators record their busy intervals so the metrics package can
// reconstruct exact per-cycle unit-state breakdowns (Figures 3 and 7)
// without per-cycle simulation.
package sched

// Interval is a half-open busy interval [Start, End).
type Interval struct {
	Start, End int64
}

// Len returns the interval length in cycles.
func (iv Interval) Len() int64 { return iv.End - iv.Start }

// Allocator is the shared interface of Monotonic and Gap.
type Allocator interface {
	// Allocate books dur consecutive cycles starting no earlier than
	// earliest and returns the start cycle.
	Allocate(earliest, dur int64) int64
	// BusyCycles returns the total booked cycles.
	BusyCycles() int64
	// Intervals returns the booked intervals, sorted and disjoint
	// (adjacent intervals are merged). The caller must not mutate it.
	Intervals() []Interval
	// Reset clears all bookings.
	Reset()
}

// Monotonic is an in-order allocator: each reservation starts at
// max(earliest, end of previous reservation).
type Monotonic struct {
	nextFree int64
	busy     int64
	iv       []Interval
}

// NewMonotonic returns an empty in-order allocator.
func NewMonotonic() *Monotonic { return &Monotonic{} }

// Allocate implements Allocator.
//
//ovlint:hotpath books one interval per instruction; steady-state appends stay within Reserve capacity
func (m *Monotonic) Allocate(earliest, dur int64) int64 {
	if dur <= 0 {
		dur = 1
	}
	start := earliest
	if m.nextFree > start {
		start = m.nextFree
	}
	m.nextFree = start + dur
	m.busy += dur
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
// further allocation. Simulators call it once per run with a bound derived
// from the trace length, so a reused allocator's steady state appends never
// reallocate.
func (m *Monotonic) Reserve(n int) { m.iv = reserve(m.iv, n) }

// BusyCycles implements Allocator.
func (m *Monotonic) BusyCycles() int64 { return m.busy }

// Intervals implements Allocator.
func (m *Monotonic) Intervals() []Interval { return m.iv }

// Reset implements Allocator. The interval storage is kept (and its
// contents overwritten by later bookings), so slices returned by Intervals
// before the Reset are invalidated.
func (m *Monotonic) Reset() {
	m.nextFree, m.busy = 0, 0
	m.iv = m.iv[:0]
}

// Gap is an out-of-order allocator that keeps a sorted, disjoint list of
// busy intervals and books the first hole large enough.
type Gap struct {
	iv   []Interval
	busy int64
}

// NewGap returns an empty gap allocator.
func NewGap() *Gap { return &Gap{} }

// Allocate implements Allocator: it finds the earliest hole of length dur
// starting at or after earliest and books it.
//
//ovlint:hotpath books one interval per instruction; steady-state appends stay within Reserve capacity
func (g *Gap) Allocate(earliest, dur int64) int64 {
	if dur <= 0 {
		dur = 1
	}
	g.busy += dur
	start, i := g.findHole(earliest, dur)
	g.insert(i, Interval{start, start + dur})
	return start
}

// Peek returns the start Allocate would choose, without booking.
//
//ovlint:hotpath probed several times per memory instruction
func (g *Gap) Peek(earliest, dur int64) int64 {
	if dur <= 0 {
		dur = 1
	}
	start, _ := g.findHole(earliest, dur)
	return start
}

// findHole locates the earliest hole of length dur at or after earliest and
// returns its start plus the insertion index.
func (g *Gap) findHole(earliest, dur int64) (int64, int) {
	// Binary search for the first interval ending after earliest.
	lo, hi := 0, len(g.iv)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.iv[mid].End <= earliest {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := earliest
	i := lo
	for i < len(g.iv) {
		if start+dur <= g.iv[i].Start {
			break // hole before interval i fits
		}
		if g.iv[i].End > start {
			start = g.iv[i].End
		}
		i++
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
// further allocation (see Monotonic.Reserve).
func (g *Gap) Reserve(n int) { g.iv = reserve(g.iv, n) }

// reserve returns iv with capacity >= n, preserving contents.
func reserve(iv []Interval, n int) []Interval {
	if cap(iv) >= n {
		return iv
	}
	grown := make([]Interval, len(iv), n)
	copy(grown, iv)
	return grown
}

// BusyCycles implements Allocator.
func (g *Gap) BusyCycles() int64 { return g.busy }

// Intervals implements Allocator.
func (g *Gap) Intervals() []Interval { return g.iv }

// Reset implements Allocator. The interval storage is kept (and its
// contents overwritten by later bookings), so slices returned by Intervals
// before the Reset are invalidated.
func (g *Gap) Reset() {
	g.iv = g.iv[:0]
	g.busy = 0
}

// RingWindow tracks the departure times of the last N occupants of a
// bounded structure (an issue queue, a reorder buffer). Entry i may only be
// admitted once occupant i-N has departed; FreeAt returns that constraint.
type RingWindow struct {
	leave []int64
	n     int
	next  int
	count int
}

// NewRingWindow returns a window of capacity n (n <= 0 means unbounded).
func NewRingWindow(n int) *RingWindow {
	if n <= 0 {
		return &RingWindow{}
	}
	return &RingWindow{leave: make([]int64, n), n: n}
}

// FreeAt returns the earliest cycle a new occupant may be admitted: 0 if the
// structure has spare capacity, otherwise the departure time of the oldest
// tracked occupant.
func (w *RingWindow) FreeAt() int64 {
	if w.n == 0 || w.count < w.n {
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
	w.leave[w.next] = departAt
	w.next = (w.next + 1) % w.n
	if w.count < w.n {
		w.count++
	}
}

// Occupied returns the number of tracked occupants still resident at the
// given cycle: those admitted but not yet departed (leave time > now). The
// scan is linear over at most the window capacity and branch-free:
// now-leave is negative exactly when the occupant is still resident, so its
// sign bit is the count (cycle values stay far below 2^62, so the
// subtraction cannot overflow). Unbounded windows report zero.
//
//ovlint:hotpath sampled once per instruction for occupancy histograms; a bounded scan with no allocation
func (w *RingWindow) Occupied(now int64) int {
	occ := 0
	for _, l := range w.leave[:w.count] {
		occ += int(uint64(now-l) >> 63)
	}
	return occ
}

// Reset clears the window.
func (w *RingWindow) Reset() {
	w.next, w.count = 0, 0
}
