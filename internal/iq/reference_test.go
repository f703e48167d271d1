package iq

import (
	"math/rand"
	"testing"

	"oovec/internal/sched"
)

// gapQueue is the issue queue with a full-history port: every issue cycle
// booked on a sched.Gap, the occupancy on the same kind of RingWindow. It is
// the reference the window-booked Queue must match.
type gapQueue struct {
	window *sched.RingWindow
	slots  *sched.Gap
}

func (q *gapQueue) Issue(enter, ready int64) int64 {
	t := q.slots.Allocate(max(enter, ready), 1)
	q.window.Admit(t)
	return t
}

// TestQueueMatchesGapReference drives Queue and gapQueue as the simulator
// does: decode never decreases and waits for AdmitConstraint, an
// instruction enters the cycle after decode or, like a vector instruction
// renamed after the memory front stages, a few cycles later, and operands
// are ready at spread-out times, from at once to hundreds of cycles later.
// Every issue cycle, admission constraint and occupancy sample must be
// equal, across Snapshot/Restore round trips into fresh queues.
func TestQueueMatchesGapReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 16, 128} {
		for seed := int64(1); seed <= 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			q := NewQueue(capacity)
			ref := &gapQueue{window: sched.NewRingWindow(capacity), slots: sched.NewGap()}
			var dec int64
			for i := 0; i < 4000; i++ {
				dec += int64(r.Intn(3))
				if r.Intn(100) == 0 {
					dec += int64(r.Intn(300))
				}
				c, want := q.AdmitConstraint(), ref.window.FreeAt()
				if c != want {
					t.Fatalf("cap %d seed %d insn %d: AdmitConstraint = %d, reference %d", capacity, seed, i, c, want)
				}
				dec = max(dec, c)
				if got, want := q.Occupied(dec), ref.window.Occupied(dec); got != want {
					t.Fatalf("cap %d seed %d insn %d: Occupied(%d) = %d, reference %d", capacity, seed, i, dec, got, want)
				}
				enter := dec + 1
				if r.Intn(4) == 0 {
					enter += int64(3 + r.Intn(6))
				}
				ready := enter
				switch k := r.Intn(10); {
				case k < 4:
				case k < 8:
					ready += int64(r.Intn(24))
				default:
					ready += int64(r.Intn(400))
				}
				if got, want := q.Issue(enter, ready), ref.Issue(enter, ready); got != want {
					t.Fatalf("cap %d seed %d insn %d: Issue(%d, %d) = %d, reference %d", capacity, seed, i, enter, ready, got, want)
				}
				if r.Intn(64) == 0 {
					st := q.Snapshot()
					q = NewQueue(capacity)
					if err := q.Restore(st); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestMemQueueFrontMatchesMonotonicReference pushes random entry cycles —
// rising, repeated, jumping ahead and falling back — through the memory
// queue's front stages and through three in-order one-cycle sched.Monotonic
// allocators, across Snapshot/Restore round trips, and requires the same
// Dependence-stage exit every time.
func TestMemQueueFrontMatchesMonotonicReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := NewMemQueue(16)
		ref := [3]*sched.Monotonic{sched.NewMonotonic(), sched.NewMonotonic(), sched.NewMonotonic()}
		var enter int64
		for i := 0; i < 2000; i++ {
			switch k := r.Intn(10); {
			case k < 6:
				enter += int64(r.Intn(3))
			case k < 8:
				enter += int64(r.Intn(200))
			default:
				enter = max(enter-int64(r.Intn(50)), 0)
			}
			want := enter
			for _, st := range ref {
				want = st.Allocate(want, 1) + 1
			}
			if got := q.Advance(enter); got != want {
				t.Fatalf("seed %d insn %d: Advance(%d) = %d, reference %d", seed, i, enter, got, want)
			}
			if r.Intn(64) == 0 {
				st := q.Snapshot()
				q = NewMemQueue(16)
				if err := q.Restore(st); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
