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
// RingWindow bounds an issue queue's occupants. Its ring of departure
// cycles is the state; a derived calendar of one bit per cycle, refiled
// from the ring on Restore, answers the per-instruction calls. Occupied(now)
// is exact for any call order: a query up to 63 cycles after the previous
// one clears the departures it passed from two calendar words without a
// branch, and any other refiles or walks the calendar.
//
// AdmitFirstFree books an issue port, which needs no history, from the same
// calendar: the first cycle at or after at on which no tracked occupant
// departs. That equals a full-history Gap booking exactly when every evicted
// occupant departed before at. It holds for a queue whose decode waits for
// FreeAt and whose occupants enter after decode: occupant j departs by the
// decode of occupant j+N, so every evicted occupant departed by the current
// decode.
package sched

import (
	"math"
	"math/bits"
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
// cal has bit c mod h set for each tracked departure c in (base, base+h],
// and dup holds the departures on a bit already set (M-queue stores leave
// together); res counts the tracked departures after base, later ones too.
type RingWindow struct {
	leave []int64
	n     int   //ovlint:config capacity, fixed at construction; Restore checks the state's ring length against it
	h     int64 //ovlint:config calendar horizon in cycles, 64 per word of cal
	next  int
	count int

	cal  []uint64 //ovlint:derived departure calendar, refiled from leave by Restore
	base int64    //ovlint:derived cycle the calendar is current for, set by Restore
	res  int      //ovlint:derived departures after base, recounted by Restore
	dup  [4]int64 //ovlint:derived refiled by Restore
	ndup int      //ovlint:derived refiled by Restore
	// slow is the first query cycle that must refile the calendar: when a
	// departure past the horizon enters it, or math.MinInt64 once dup
	// overflowed.
	slow int64 //ovlint:derived recomputed by Restore
}

// NewRingWindow returns a window of capacity n (n <= 0 means unbounded).
// Its calendar has two words per slot (at least two), 16n bytes: a
// horizon of at least 128n cycles.
func NewRingWindow(n int) *RingWindow {
	n = max(n, 0)
	words := 2
	for words < 2*n {
		words *= 2
	}
	w := &RingWindow{leave: make([]int64, n), n: n, h: int64(words) << 6, cal: make([]uint64, words)}
	w.rebuild(0)
	return w
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
	if w.count == w.n && w.leave[w.next] > w.base { // never in a machine: its decode waits for FreeAt
		w.advance(w.leave[w.next]) // the evicted departure falls out of the calendar
	}
	w.count = min(w.count+1, w.n)
	w.leave[w.next] = departAt
	if w.next++; w.next == w.n {
		w.next = 0
	}
	w.file(departAt)
}

// file adds departure d to the calendar.
func (w *RingWindow) file(d int64) {
	if d <= w.base {
		return
	}
	w.res++
	if d-w.base > w.h {
		w.slow = min(w.slow, d-w.h)
		return
	}
	i, b := w.bit(d)
	if w.cal[i]&b != 0 {
		if w.ndup == len(w.dup) {
			w.slow = math.MinInt64
			return
		}
		w.dup[w.ndup] = d
		w.ndup++
	}
	w.cal[i] |= b
}

// bit returns the calendar word and bit of cycle c.
func (w *RingWindow) bit(c int64) (int, uint64) {
	return int(c>>6) & (len(w.cal) - 1), 1 << uint(c&63)
}

// AdmitFirstFree admits an occupant departing at the first cycle at or after
// at on which no tracked occupant departs, and returns that cycle (see the
// package comment). An unbounded window tracks nothing and returns at.
//
//ovlint:hotpath books the issue port once per queued instruction
func (w *RingWindow) AdmitFirstFree(at int64) int64 {
	// The calendar must cover at and n more cycles, which the n tracked
	// departures cannot all take. It moves no further than that, since
	// the next query may come earlier than at.
	if at <= w.base || at-w.base > w.h-int64(w.n) {
		w.advance(at - w.h + int64(w.n))
	}
	t := at
	for {
		i, _ := w.bit(t)
		if free := ^w.cal[i] >> uint(t&63); free != 0 {
			t += int64(bits.TrailingZeros64(free))
			break
		}
		t = (t | 63) + 1
	}
	w.Admit(t)
	return t
}

// Occupied returns the number of tracked occupants still resident at the
// given cycle: those admitted but not yet departed (leave time > now).
// Unbounded windows report zero.
//
//ovlint:hotpath sampled once per instruction for occupancy histograms
func (w *RingWindow) Occupied(now int64) int {
	d := now - w.base
	if uint64(d) > 63 || now >= w.slow || w.ndup > 0 {
		w.advance(now)
		return w.res
	}
	// Clear (base, now], d bits from base+1 over two words. No shift count
	// reaches 64, so none needs the compiler's wide-shift fix-up.
	lo := w.base + 1
	i, _ := w.bit(lo)
	j := (i + 1) & (len(w.cal) - 1)
	m, s := uint64(1)<<(d&63)-1, uint(lo&63)
	m0, m1 := m<<s, m>>(63-s)>>1
	w.res -= bits.OnesCount64(w.cal[i]&m0) + bits.OnesCount64(w.cal[j]&m1)
	w.cal[i] &^= m0
	w.cal[j] &^= m1
	w.base = now
	return w.res
}

// advance moves the calendar to cycle now: forward within the horizon by
// clearing the words and duplicates it passes, otherwise by refiling it.
func (w *RingWindow) advance(now int64) {
	if now < w.base || now-w.base >= w.h || now >= w.slow {
		w.rebuild(now)
		return
	}
	for c := w.base + 1; c <= now; c = (c | 63) + 1 {
		i, _ := w.bit(c)
		m := ^uint64(0) << uint(c&63)
		if c>>6 == now>>6 { // the last word ends at now
			m &= ^uint64(0) >> uint(63-now&63)
		}
		w.res -= bits.OnesCount64(w.cal[i] & m)
		w.cal[i] &^= m
	}
	k := 0
	for _, d := range w.dup[:w.ndup] {
		if d > now {
			w.dup[k] = d
			k++
		}
	}
	w.base, w.res, w.ndup = now, w.res-(w.ndup-k), k
}

// rebuild refiles the calendar as of cycle now from the ring.
func (w *RingWindow) rebuild(now int64) {
	clear(w.cal)
	w.base, w.res, w.ndup, w.slow = now, 0, 0, math.MaxInt64
	for _, l := range w.leave[:w.count] {
		w.file(l)
	}
}

// Reset clears the window.
func (w *RingWindow) Reset() {
	w.next, w.count = 0, 0
	w.rebuild(0)
}
