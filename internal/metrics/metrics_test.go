package metrics

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"oovec/internal/isa"
	"oovec/internal/sched"
	"oovec/internal/trace"
)

// held is an interval list as an allocator holds it.
type held []sched.Interval

func (h *held) Intervals() []sched.Interval { return *h }
func (h *held) Drop(t int64) {
	for len(*h) > 0 && (*h)[0].End <= t {
		*h = (*h)[1:]
	}
}

// breakdown folds the three interval lists into a fresh accumulator at each
// of the increasing cut cycles and then up to total, and returns the counts.
// The lists are not modified.
func breakdown(fu2, fu1, mem []sched.Interval, total int64, cuts ...int64) Breakdown {
	var s StateBreakdown
	h2, h1, hm := held(fu2), held(fu1), held(mem)
	for _, c := range append(cuts, total) {
		s.Fold(&h2, &h1, &hm, c)
	}
	if s.At != total || s.States.Total() != total {
		panic(fmt.Sprintf("breakdown folded to %d with %d cycles counted, want %d", s.At, s.States.Total(), total))
	}
	return s.States
}

func TestStateString(t *testing.T) {
	if got := (StateFU2 | StateFU1 | StateMEM).String(); got != "<FU2,FU1,MEM>" {
		t.Errorf("full state = %q", got)
	}
	if got := State(0).String(); got != "< , , >" {
		t.Errorf("idle state = %q", got)
	}
	if got := StateMEM.String(); got != "< , ,MEM>" {
		t.Errorf("mem state = %q", got)
	}
	if got := StateFU1.String(); got != "< ,FU1, >" {
		t.Errorf("fu1 state = %q", got)
	}
}

func TestStateBreakdownDisjointUnits(t *testing.T) {
	// FU2 busy [0,10), FU1 busy [10,20), MEM busy [20,30); total 40.
	b := breakdown(
		[]sched.Interval{{Start: 0, End: 10}},
		[]sched.Interval{{Start: 10, End: 20}},
		[]sched.Interval{{Start: 20, End: 30}},
		40)
	if b[StateFU2] != 10 || b[StateFU1] != 10 || b[StateMEM] != 10 {
		t.Errorf("breakdown = %v", b)
	}
	if b.Idle() != 10 {
		t.Errorf("idle = %d, want 10", b.Idle())
	}
	if b.Total() != 40 {
		t.Errorf("total = %d, want 40", b.Total())
	}
}

func TestStateBreakdownOverlap(t *testing.T) {
	// All three busy [5,15); FU1 alone [15,25); total 30.
	b := breakdown(
		[]sched.Interval{{Start: 5, End: 15}},
		[]sched.Interval{{Start: 5, End: 25}},
		[]sched.Interval{{Start: 5, End: 15}},
		30)
	if b[StateFU2|StateFU1|StateMEM] != 10 {
		t.Errorf("fully busy = %d, want 10", b[StateFU2|StateFU1|StateMEM])
	}
	if b[StateFU1] != 10 {
		t.Errorf("fu1 alone = %d, want 10", b[StateFU1])
	}
	if b.Idle() != 10 {
		t.Errorf("idle = %d, want 10", b.Idle())
	}
}

func TestStateBreakdownClampsToTotal(t *testing.T) {
	b := breakdown(
		[]sched.Interval{{Start: 0, End: 100}}, nil, nil, 10)
	if b[StateFU2] != 10 || b.Total() != 10 {
		t.Errorf("clamped breakdown = %v", b)
	}
}

func TestMemIdleCycles(t *testing.T) {
	b := Breakdown{}
	b[0] = 5                 // idle
	b[StateFU1] = 7          // FU1 only
	b[StateMEM] = 11         // MEM only
	b[StateFU2|StateFU1] = 3 // both FUs, no MEM
	b[StateFU2|StateFU1|StateMEM] = 2
	if got := b.MemIdleCycles(); got != 5+7+3 {
		t.Errorf("mem idle = %d, want 15", got)
	}
}

func TestPropertyBreakdownTotalsMatch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() []sched.Interval {
			g := sched.NewGap()
			for i := 0; i < 30; i++ {
				g.Allocate(int64(r.Intn(500)), int64(1+r.Intn(20)))
			}
			return g.Intervals()
		}
		fu2, fu1, mem := mk(), mk(), mk()
		total := int64(1200)
		b := breakdown(fu2, fu1, mem, total)
		if b.Total() != total {
			return false
		}
		// Per-unit busy cycles recovered from the breakdown must equal the
		// clamped interval sums.
		sum := func(ivs []sched.Interval) int64 {
			var s int64
			for _, iv := range ivs {
				e := iv.End
				if e > total {
					e = total
				}
				if iv.Start < e {
					s += e - iv.Start
				}
			}
			return s
		}
		var gotFU2, gotFU1, gotMEM int64
		for s := State(0); s < NumStates; s++ {
			if s&StateFU2 != 0 {
				gotFU2 += b[s]
			}
			if s&StateFU1 != 0 {
				gotFU1 += b[s]
			}
			if s&StateMEM != 0 {
				gotMEM += b[s]
			}
		}
		return gotFU2 == sum(fu2) && gotFU1 == sum(fu1) && gotMEM == sum(mem)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRunStatsMemPortIdlePct(t *testing.T) {
	r := &RunStats{Cycles: 200, MemPortBusy: 50}
	if got := r.MemPortIdlePct(); got != 75 {
		t.Errorf("idle pct = %v, want 75", got)
	}
	empty := &RunStats{}
	if empty.MemPortIdlePct() != 0 {
		t.Error("empty stats idle pct should be 0")
	}
}

func TestSpeedupAndTraffic(t *testing.T) {
	base := &RunStats{Cycles: 1000, MemRequests: 500}
	fast := &RunStats{Cycles: 500, MemRequests: 400}
	if got := Speedup(base, fast); got != 2 {
		t.Errorf("speedup = %v, want 2", got)
	}
	if got := TrafficReduction(base, fast); got != 1.25 {
		t.Errorf("traffic reduction = %v, want 1.25", got)
	}
	if Speedup(base, &RunStats{}) != 0 || TrafficReduction(base, &RunStats{}) != 0 {
		t.Error("zero denominators should yield 0")
	}
}

func buildTestTrace() *trace.Trace {
	b := trace.NewBuilder("ideal-test")
	b.SetVL(64, isa.A(0))
	// 4 flexible vector ops (64 each), 2 FU2-only (64 each), 3 vector
	// memory ops (64 each), 2 scalar loads.
	for i := 0; i < 4; i++ {
		b.Vector(isa.OpVAdd, isa.V(0), isa.V(1), isa.V(2))
	}
	for i := 0; i < 2; i++ {
		b.Vector(isa.OpVMul, isa.V(3), isa.V(1), isa.V(2))
	}
	for i := 0; i < 3; i++ {
		b.VLoad(isa.V(4), uint64(0x1000+i*0x400))
	}
	b.ScalarLoad(isa.OpSLoad, isa.S(0), 0x9000)
	b.ScalarLoad(isa.OpSLoad, isa.S(1), 0x9008)
	return b.Build()
}

func TestIdealCyclesBalancedFUs(t *testing.T) {
	tr := buildTestTrace()
	// FU2-only: 2*64 = 128. Flexible: 4*64 = 256. Balanced max(FU1,FU2) =
	// ceil(384/2) = 192 >= 128. MEM = 3*64 + 2 = 194.
	// IDEAL = max(192, 194) = 194.
	if got := IdealCycles(tr); got != 194 {
		t.Errorf("IdealCycles = %d, want 194", got)
	}
}

func TestIdealCyclesFU2Dominated(t *testing.T) {
	b := trace.NewBuilder("fu2-heavy")
	b.SetVL(64, isa.A(0))
	for i := 0; i < 10; i++ {
		b.Vector(isa.OpVDiv, isa.V(0), isa.V(1), isa.V(2))
	}
	b.Vector(isa.OpVAdd, isa.V(3), isa.V(1), isa.V(2))
	tr := b.Build()
	// FU2-only = 640 > balanced(704/2=352) and MEM=0.
	if got := IdealCycles(tr); got != 640 {
		t.Errorf("IdealCycles = %d, want 640", got)
	}
}

func TestIdealSpeedup(t *testing.T) {
	tr := buildTestTrace()
	if got := IdealSpeedup(1940, tr); got != 10 {
		t.Errorf("IdealSpeedup = %v, want 10", got)
	}
	var empty trace.Trace
	if IdealSpeedup(100, &empty) != 0 {
		t.Error("empty trace ideal speedup should be 0")
	}
}

func TestPropertyIdealIsLowerBoundOnUnitWork(t *testing.T) {
	// IDEAL must never be below any single unit's total work divided
	// between the units that can execute it.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := trace.NewBuilder("prop")
		b.SetVL(1+r.Intn(isa.MaxVL), isa.A(0))
		var memWork int64
		for i := 0; i < 100; i++ {
			switch r.Intn(3) {
			case 0:
				b.Vector(isa.OpVAdd, isa.V(0), isa.V(1), isa.V(2))
			case 1:
				b.Vector(isa.OpVMul, isa.V(0), isa.V(1), isa.V(2))
			case 2:
				b.VLoad(isa.V(3), uint64(r.Intn(1<<20)))
				memWork += int64(b.VL())
			}
		}
		tr := b.Build()
		return IdealCycles(tr) >= memWork
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBreakdownMatchesPerCycle checks every one of the eight state
// counts, folded in several steps, against a per-cycle brute force. The
// inputs honour the sorted, disjoint precondition: interval lists from both
// allocator disciplines, empty lists, and intervals that start before 0 or
// run past total.
func TestPropertyBreakdownMatchesPerCycle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() []sched.Interval {
			var a interface {
				Allocate(earliest, dur int64) int64
				Intervals() []sched.Interval
			} = sched.NewGap()
			switch r.Intn(4) {
			case 0:
				return nil
			case 1:
				a = sched.NewMonotonic()
			}
			for i, n := 0, r.Intn(40); i < n; i++ {
				a.Allocate(int64(r.Intn(600)), int64(1+r.Intn(30)))
			}
			ivs := a.Intervals()
			if len(ivs) > 0 && r.Intn(4) == 0 {
				ivs[0].Start -= int64(1 + r.Intn(10)) // starts before cycle 0
			}
			return ivs
		}
		fu2, fu1, mem := mk(), mk(), mk()
		total := int64(r.Intn(800)) // often ends inside an interval
		// Fold at increasing cuts, as a run does at its floors: a cut often
		// falls inside an interval, which is then counted in two folds.
		var cuts []int64
		for c := int64(r.Intn(50)); c < total; c += int64(1 + r.Intn(100)) {
			cuts = append(cuts, c)
		}
		got := breakdown(fu2, fu1, mem, total, cuts...)

		var want Breakdown
		busy := func(ivs []sched.Interval, c int64) bool {
			for _, iv := range ivs {
				if iv.Start <= c && c < iv.End {
					return true
				}
			}
			return false
		}
		for c := int64(0); c < total; c++ {
			var s State
			if busy(fu2, c) {
				s |= StateFU2
			}
			if busy(fu1, c) {
				s |= StateFU1
			}
			if busy(mem, c) {
				s |= StateMEM
			}
			want[s]++
		}
		if got != want {
			t.Logf("seed %d total %d: got %v, want %v", seed, total, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStateBreakdownEmpty(t *testing.T) {
	if b := breakdown(nil, nil, nil, 0); b != (Breakdown{}) {
		t.Errorf("zero-length run breakdown = %v", b)
	}
	if b := breakdown(nil, nil, nil, 7); b.Idle() != 7 || b.Total() != 7 {
		t.Errorf("all-idle breakdown = %v, want 7 idle cycles", b)
	}
}
