package sched_test

import (
	"slices"
	"strings"
	"testing"

	"oovec/internal/metrics"
	"oovec/internal/sched"
)

// scanOccupied is the reference occupancy count: a linear scan over the
// window's ring, counting the tracked occupants that depart after now.
func scanOccupied(st sched.RingWindowState, now int64) int {
	occ := 0
	for _, l := range st.Leave[:st.Count] {
		if l > now {
			occ++
		}
	}
	return occ
}

// scanFindHole is the reference hole search: a walk over the whole
// interval list from the first interval.
func scanFindHole(iv []sched.Interval, earliest, dur int64) (int64, int) {
	i := 0
	for i < len(iv) && iv[i].End <= earliest {
		i++
	}
	start := earliest
	for ; i < len(iv); i++ {
		if start+dur <= iv[i].Start {
			break
		}
		start = max(start, iv[i].End)
	}
	return start, i
}

// fullBreakdown is the full-history state breakdown the folding
// accumulator replaced: one three-way merge over whole interval lists,
// counting cycles [0, total).
func fullBreakdown(fu2, fu1, mem []sched.Interval, total int64) metrics.Breakdown {
	var b metrics.Breakdown
	busy := func(ivs []sched.Interval, i *int, t int64, bit metrics.State, next *int64) metrics.State {
		for *i < len(ivs) && ivs[*i].End <= t {
			*i++
		}
		if *i == len(ivs) {
			return 0
		}
		if iv := ivs[*i]; iv.Start <= t {
			*next = min(*next, iv.End)
			return bit
		}
		*next = min(*next, ivs[*i].Start)
		return 0
	}
	var i2, i1, im int
	for t := int64(0); t < total; {
		next := total
		cur := busy(fu2, &i2, t, metrics.StateFU2, &next) |
			busy(fu1, &i1, t, metrics.StateFU1, &next) |
			busy(mem, &im, t, metrics.StateMEM, &next)
		b[cur] += next - t
		t = next
	}
	return b
}

// from returns the busy cycles of iv at or after at, as sorted, disjoint,
// merged intervals: two lists with the same busy cycles there compare
// equal whatever intervals they were booked as.
func from(iv []sched.Interval, at int64) []sched.Interval {
	var out []sched.Interval
	for _, v := range iv {
		v.Start = max(v.Start, at)
		switch n := len(out); {
		case v.Start >= v.End:
		case n > 0 && out[n-1].End == v.Start:
			out[n-1].End = v.End
		default:
			out = append(out, v)
		}
	}
	return out
}

// FuzzWindowAndGap decodes the input into a sequence of RingWindow, Gap and
// Monotonic operations — admissions (some on the cycle of the previous one,
// as M-queue stores leave together, and some 64 cycles to a million cycles
// past the last query, beyond any calendar horizon), occupancy queries
// (some at an earlier cycle than the previous query, some 64 to 8,192
// cycles ahead, so a departure past the horizon enters it, and some
// further ahead than any horizon), hole searches and bookings at nearly monotone
// and at far earlier cycles, port bookings from the window (some far
// ahead), folds into a StateBreakdown at a rising floor, Snapshot/Restore
// round trips and Resets, on windows of up to 1024 slots (cli.MaxStructure)
// — and checks every occupancy count and port booking against the linear
// references, and every hole, booking and breakdown of the folded
// allocators against full-history twins that are never folded. Bookings
// after a fold ask for cycles at or after its floor, as the machines do.
func FuzzWindowAndGap(f *testing.F) {
	f.Add([]byte{1, 0, 10, 0, 20, 2, 1, 2, 3, 3, 9, 2, 0})
	f.Add([]byte{5, 0, 63, 1, 40, 2, 2, 0, 5, 6, 0, 2, 1, 3, 60, 2, 3})
	f.Add([]byte{7, 4, 10, 5, 3, 5, 250, 4, 2, 5, 17, 6, 0, 4, 245, 5, 1})
	f.Add([]byte{6, 0, 9, 0, 8, 0, 7, 0, 6, 2, 0, 7, 0, 0, 50, 2, 63, 3, 63, 2, 1})
	f.Add([]byte{4, 7, 9, 7, 9, 7, 9, 2, 3, 7, 10, 7, 9, 3, 30, 7, 1, 6, 0, 7, 9, 2, 1, 7, 13})
	f.Add([]byte{0, 5, 3, 15, 40, 8, 2, 5, 9, 9, 30, 15, 3, 8, 7, 6, 0, 5, 1, 9, 40, 4, 2, 15, 250, 9, 20, 8, 1, 6, 3})
	f.Add([]byte{5, 0, 9, 1, 3, 1, 3, 2, 1, 1, 250, 2, 3, 2, 60, 7, 9, 2, 255, 3, 10, 2, 1, 6, 0, 2, 2})
	f.Add([]byte{9, 0, 4, 1, 7, 1, 248, 7, 245, 2, 1, 2, 250, 7, 6, 3, 9, 6, 0, 2, 3, 1, 255, 2, 252, 7, 2})
	// A query at the calendar's own cycle while a duplicate departure is held.
	f.Add([]byte("R^72020z0IA80z\x80z0z0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := []int{0, 1, 2, 3, 4, 16, 64, 128, 1000, 1024}[data[0]%10]
		w := sched.NewRingWindow(n)
		// fu2 and mem are folded Gaps and fu1 a folded Monotonic; the
		// full-history twins book the same requests and are never folded.
		fu2, mem, fu1 := sched.NewGap(), sched.NewGap(), sched.NewMonotonic()
		fu2Full, memFull, fu1Full := sched.NewGap(), sched.NewGap(), sched.NewMonotonic()
		var acc metrics.StateBreakdown
		var now, gnow, floor, last int64
		// far is a cycle 8,192 to a million cycles after now: past the
		// calendar horizon of every capacity up to 1024.
		far := func(arg int64) int64 { return now + 8192<<(arg%8) }
		checkFold := func(k int) {
			want := fullBreakdown(fu2Full.Intervals(), fu1Full.Intervals(), memFull.Intervals(), acc.At)
			if acc.States != want {
				t.Fatalf("op %d: breakdown to %d = %v, full history %v", k, acc.At, acc.States, want)
			}
			if err := acc.Check(fu2, fu1, mem); err != nil {
				t.Fatalf("op %d: %v", k, err)
			}
			for _, u := range [...]struct{ held, full []sched.Interval }{
				{fu2.Intervals(), fu2Full.Intervals()},
				{fu1.Intervals(), fu1Full.Intervals()},
				{mem.Intervals(), memFull.Intervals()},
			} {
				if got, want := from(u.held, acc.At), from(u.full, acc.At); !slices.Equal(got, want) {
					t.Fatalf("op %d: held bookings from %d = %v, full history %v", k, acc.At, got, want)
				}
			}
		}
		for k := 1; k+1 < len(data); k += 2 {
			op, arg := data[k]%10, int64(data[k+1])
			switch op {
			case 0, 1: // admit, sometimes already departed, or for op 1 with the last departure or further ahead
				switch {
				case op == 0 || arg < 96:
					last = now + arg%64 - 8
				case arg >= 240:
					last = far(arg)
				case arg >= 200:
					last = now + 64<<(arg%8)
				}
				w.Admit(last)
			case 2, 3: // query forwards, 64 to 8,192 cycles or far ahead, or backwards for op 3
				switch {
				case op == 3:
					now -= arg % 64
				case arg >= 248:
					now = far(arg)
				case arg >= 200:
					now += 64 << (arg % 8)
				default:
					now += arg % 4
				}
				if got, want := w.Occupied(now), scanOccupied(w.Snapshot(), now); got != want {
					t.Fatalf("op %d: Occupied(%d) = %d, linear scan %d", k, now, got, want)
				}
			case 4, 5: // hole search, nearly monotone or far back for arg >= 240
				g, full := fu2, fu2Full
				if data[k]/10%2 == 1 {
					g, full = mem, memFull
				}
				earliest := gnow + arg%32 - 8
				if arg >= 240 {
					earliest = arg - 240
				}
				earliest = max(earliest, floor)
				dur := 1 + arg%5
				wantStart, _ := scanFindHole(full.Intervals(), earliest, dur)
				_, wantIdx := scanFindHole(g.Intervals(), earliest, dur)
				start, idx := sched.FindHole(g, earliest, dur)
				if start != wantStart || idx != wantIdx {
					t.Fatalf("op %d: findHole(%d, %d) = (%d, %d), linear scan (%d, %d)",
						k, earliest, dur, start, idx, wantStart, wantIdx)
				}
				if op == 5 {
					if got := g.Allocate(earliest, dur); got != wantStart {
						t.Fatalf("op %d: Allocate(%d, %d) = %d, want %d", k, earliest, dur, got, wantStart)
					}
					full.Allocate(earliest, dur)
					gnow++
				}
			case 6: // checkpoint round trip into fresh structures
				w2, fu22, mem2, fu12 := sched.NewRingWindow(n), sched.NewGap(), sched.NewGap(), sched.NewMonotonic()
				if err := w2.Restore(w.Snapshot()); err != nil {
					t.Fatalf("op %d: window restore: %v", k, err)
				}
				if err := fu22.Restore(fu2.Snapshot()); err != nil {
					t.Fatalf("op %d: gap restore: %v", k, err)
				}
				if err := mem2.Restore(mem.Snapshot()); err != nil {
					t.Fatalf("op %d: gap restore: %v", k, err)
				}
				if err := fu12.Restore(fu1.Snapshot()); err != nil {
					t.Fatalf("op %d: monotonic restore: %v", k, err)
				}
				w, fu2, mem, fu1 = w2, fu22, mem2, fu12
				checkFold(k)
			case 7: // reset, or for arg%4 != 0 a port booking from the window
				if arg%4 == 0 {
					w.Reset()
					for _, a := range [...]interface{ Reset() }{fu2, mem, fu1, fu2Full, memFull, fu1Full} {
						a.Reset()
					}
					acc = metrics.StateBreakdown{}
					gnow, floor = 0, 0
					break
				}
				at := now + arg%64 - 8
				if arg >= 240 {
					at = far(arg)
				}
				st := w.Snapshot()
				want := at
				for slices.Contains(st.Leave[:st.Count], want) {
					want++
				}
				if got := w.AdmitFirstFree(at); got != want {
					t.Fatalf("op %d: AdmitFirstFree(%d) = %d, ring scan %d", k, at, got, want)
				}
			case 8: // in-order booking
				earliest, dur := max(gnow+arg%16-4, floor), 1+arg%7
				if got, want := fu1.Allocate(earliest, dur), fu1Full.Allocate(earliest, dur); got != want {
					t.Fatalf("op %d: monotonic Allocate(%d, %d) = %d, full history %d", k, earliest, dur, got, want)
				}
				if fu1.NextFree() != fu1Full.NextFree() {
					t.Fatalf("op %d: monotonic NextFree %d, full history %d", k, fu1.NextFree(), fu1Full.NextFree())
				}
			case 9: // fold at a floor that never falls
				floor = max(floor, gnow+arg%32-16)
				acc.Fold(fu2, fu1, mem, floor)
				checkFold(k)
			}
		}
		// Finish: fold past every booking.
		var end int64
		for _, iv := range [][]sched.Interval{fu2Full.Intervals(), fu1Full.Intervals(), memFull.Intervals()} {
			if len(iv) > 0 {
				end = max(end, iv[len(iv)-1].End)
			}
		}
		acc.Fold(fu2, fu1, mem, max(floor, end+1))
		checkFold(len(data))
	})
}

// TestRestoreRejectsMalformedState feeds states no window or allocator can
// produce; each must be an error that leaves the structure usable.
func TestRestoreRejectsMalformedState(t *testing.T) {
	good := func() sched.RingWindowState {
		w := sched.NewRingWindow(4)
		w.Admit(7)
		return w.Snapshot()
	}
	windows := []struct {
		name string
		edit func(*sched.RingWindowState)
		want string
	}{
		{"capacity mismatch", func(st *sched.RingWindowState) { st.Leave = make([]int64, 8) }, "capacity"},
		{"short ring", func(st *sched.RingWindowState) { st.Leave = st.Leave[:2] }, "capacity"},
		{"over-long count", func(st *sched.RingWindowState) { st.Count = 5 }, "count"},
		{"negative count", func(st *sched.RingWindowState) { st.Count = -1 }, "count"},
		{"ring index past the end", func(st *sched.RingWindowState) { st.Next = 4 }, "ring index"},
		{"negative ring index", func(st *sched.RingWindowState) { st.Next = -1 }, "ring index"},
	}
	for _, c := range windows {
		st := good()
		c.edit(&st)
		w := sched.NewRingWindow(4)
		if err := w.Restore(st); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("window %s: Restore error %v, want one mentioning %q", c.name, err, c.want)
		}
		w.Admit(3)
		if got := w.Occupied(0); got != 1 {
			t.Errorf("window %s: Occupied after a rejected Restore = %d, want 1", c.name, got)
		}
	}

	gaps := []struct {
		name string
		iv   []sched.Interval
	}{
		{"empty interval", []sched.Interval{{5, 5}}},
		{"inverted interval", []sched.Interval{{9, 4}}},
		{"unsorted intervals", []sched.Interval{{10, 20}, {0, 5}}},
		{"overlapping intervals", []sched.Interval{{0, 10}, {5, 15}}},
	}
	for _, c := range gaps {
		g := sched.NewGap()
		if err := g.Restore(sched.GapState{IV: c.iv}); err == nil {
			t.Errorf("gap %s: Restore accepted %v", c.name, c.iv)
		}
		if got := g.Allocate(0, 2); got != 0 {
			t.Errorf("gap %s: Allocate after a rejected Restore = %d, want 0", c.name, got)
		}
	}

	monotonics := []struct {
		name string
		st   sched.MonotonicState
	}{
		{"empty interval", sched.MonotonicState{NextFree: 5, IV: []sched.Interval{{5, 5}}}},
		{"unsorted intervals", sched.MonotonicState{NextFree: 5, IV: []sched.Interval{{10, 20}, {0, 5}}}},
		{"next free before the last interval's end", sched.MonotonicState{NextFree: 15, IV: []sched.Interval{{0, 5}, {10, 20}}}},
		{"next free past the last interval's end", sched.MonotonicState{NextFree: 21, IV: []sched.Interval{{0, 5}, {10, 20}}}},
		{"negative next free without intervals", sched.MonotonicState{NextFree: -3}},
	}
	for _, c := range monotonics {
		m := sched.NewMonotonic()
		if err := m.Restore(c.st); err == nil {
			t.Errorf("monotonic %s: Restore accepted %+v", c.name, c.st)
		}
		if got := m.Allocate(0, 2); got != 0 {
			t.Errorf("monotonic %s: Allocate after a rejected Restore = %d, want 0", c.name, got)
		}
	}
	m := sched.NewMonotonic()
	m.Allocate(3, 4)
	m.Allocate(20, 1)
	if err := sched.NewMonotonic().Restore(m.Snapshot()); err != nil {
		t.Errorf("monotonic: a snapshot restores with %v", err)
	}
	// A fold may drop every interval; the next free cycle stays.
	m.Drop(21)
	r := sched.NewMonotonic()
	if err := r.Restore(m.Snapshot()); err != nil || r.NextFree() != 21 {
		t.Errorf("monotonic with every interval dropped: Restore error %v, next free %d, want nil and 21", err, r.NextFree())
	}
}
