// Package metrics computes the measurements the paper reports: the
// eight-state (FU2, FU1, MEM) execution-cycle breakdown of Figures 3 and 7,
// the memory-port idle percentages of Figures 4 and 6, the IDEAL speedup
// bound of Figures 5 and 8, and assorted speedup/traffic helpers.
package metrics

import (
	"encoding/binary"
	"errors"
	"fmt"

	"oovec/internal/isa"
	"oovec/internal/sched"
	"oovec/internal/trace"
)

// State is the paper's 3-tuple machine state: which of the three vector-unit
// resources (FU2, FU1, MEM) are busy in a cycle. Encoded as a bitmask.
type State uint8

// Bit assignments within State.
const (
	StateMEM State = 1 << iota
	StateFU1
	StateFU2
)

// NumStates is the number of distinct (FU2, FU1, MEM) states.
const NumStates = 8

// String renders the state in the paper's tuple notation, e.g.
// "<FU2,FU1,MEM>" or "< , , >".
func (s State) String() string {
	f2, f1, m := " ", " ", " "
	if s&StateFU2 != 0 {
		f2 = "FU2"
	}
	if s&StateFU1 != 0 {
		f1 = "FU1"
	}
	if s&StateMEM != 0 {
		m = "MEM"
	}
	return fmt.Sprintf("<%s,%s,%s>", f2, f1, m)
}

// Breakdown is the number of cycles spent in each of the eight states.
type Breakdown [NumStates]int64

// Total returns the sum over all states (the measured execution time).
func (b Breakdown) Total() int64 {
	var t int64
	for _, v := range b {
		t += v
	}
	return t
}

// Idle returns the cycles in state < , , > (all vector units idle).
func (b Breakdown) Idle() int64 { return b[0] }

// MemIdleCycles returns the cycles in the four states where the MEM unit is
// idle — the quantity of Figure 4 ("these four states correspond to cycles
// where the memory port could potentially be used").
func (b Breakdown) MemIdleCycles() int64 {
	var t int64
	for s := State(0); s < NumStates; s++ {
		if s&StateMEM == 0 {
			t += b[s]
		}
	}
	return t
}

// FoldEvery is how many instructions apart the machines fold their finished
// bookings into their StateBreakdown.
const FoldEvery = 64

// StateBreakdown accumulates the exact per-state cycle counts of the three
// vector units, over cycles [0, At), as a run goes: a machine folds in its
// bookings below a floor no later booking starts under, so its allocators
// hold only bookings that can still change the count.
type StateBreakdown struct {
	States Breakdown
	At     int64
}

// Unit is one vector unit's held bookings, as the sched allocators keep
// them: sorted, disjoint, and each ending after the breakdown's At.
type Unit interface {
	Intervals() []sched.Interval
	Drop(t int64)
}

// Fold counts the cycles [At, upTo) from the held intervals of the three
// units, in one three-way merge, and drops from each unit the intervals
// that end at or before upTo; one straddling upTo is counted up to it and
// kept. No unit may be booked below upTo afterwards.
func (s *StateBreakdown) Fold(fu2, fu1, mem Unit, upTo int64) {
	iv2, iv1, ivm := fu2.Intervals(), fu1.Intervals(), mem.Intervals()
	var i2, i1, im int
	for t := s.At; t < upTo; {
		// Each unit contributes its busy bit at t and the next cycle its
		// state changes; the machine state is constant until the earliest.
		next := upTo
		cur := unitAt(iv2, &i2, t, StateFU2, &next) |
			unitAt(iv1, &i1, t, StateFU1, &next) |
			unitAt(ivm, &im, t, StateMEM, &next)
		s.States[cur] += next - t
		t = next
	}
	s.At = max(s.At, upTo)
	fu2.Drop(upTo)
	fu1.Drop(upTo)
	mem.Drop(upTo)
}

// Check reports a breakdown no run produces beside the units' held
// intervals: a negative count, counts that do not sum to At, or a held
// interval ending at or before At, which the breakdown has counted already.
func (s *StateBreakdown) Check(fu2, fu1, mem Unit) error {
	for st, n := range s.States {
		if n < 0 {
			return fmt.Errorf("state breakdown counts %d cycles in state %v", n, State(st))
		}
	}
	if tot := s.States.Total(); tot != s.At {
		return fmt.Errorf("state breakdown counts %d cycles up to cycle %d", tot, s.At)
	}
	for _, u := range [...]Unit{fu2, fu1, mem} {
		if iv := u.Intervals(); len(iv) > 0 && iv[0].End <= s.At {
			return fmt.Errorf("held interval [%d,%d) ends at or before the breakdown's cycle %d", iv[0].Start, iv[0].End, s.At)
		}
	}
	return nil
}

// MemBusy returns the cycles the MEM unit is busy: the sum of the four
// states that contain it.
func (b Breakdown) MemBusy() int64 { return b.Total() - b.MemIdleCycles() }

// unitAt advances *i past the intervals of ivs that end at or before t and
// returns bit if the unit is busy at t (0 otherwise), lowering *next to the
// cycle the unit's state next changes.
func unitAt(ivs []sched.Interval, i *int, t int64, bit State, next *int64) State {
	for *i < len(ivs) && ivs[*i].End <= t {
		*i++
	}
	if *i == len(ivs) {
		return 0
	}
	iv := ivs[*i]
	if iv.Start <= t {
		*next = min(*next, iv.End)
		return bit
	}
	*next = min(*next, iv.Start)
	return 0
}

// StallBreakdown attributes pipeline stall cycles to the specific hardware
// resource that caused them — the per-cause refinement of the coarse
// DecodeStall* counters. The paper's 8-state breakdown says the machine was
// stalled; this says why. All counters are exact cycle counts accumulated
// deterministically during the run, so they are part of the result (and of
// checkpoints), never an optional probe artifact.
type StallBreakdown struct {
	// ROBFull counts decode stalls waiting for a reorder-buffer slot.
	ROBFull int64
	// IQFullA/S/V/M count decode stalls waiting for a slot in the named
	// issue queue.
	IQFullA int64
	IQFullS int64
	IQFullV int64
	IQFullM int64
	// NoPhysA/S/V/M count decode stalls waiting for a free physical
	// register of the destination's class.
	NoPhysA int64
	NoPhysS int64
	NoPhysV int64
	NoPhysM int64
	// PortConflict counts cycles lost to vector register-file port
	// conflicts (equals VRegPortConflictCycles; derived at end of run).
	PortConflict int64
	// MemBusBusy counts cycles memory accesses waited for the shared
	// address bus after being otherwise ready to issue requests.
	MemBusBusy int64
}

// IQFull returns the total issue-queue-full stall cycles across queues.
func (b *StallBreakdown) IQFull() int64 {
	return b.IQFullA + b.IQFullS + b.IQFullV + b.IQFullM
}

// NoPhysReg returns the total free-list-empty stall cycles across classes.
func (b *StallBreakdown) NoPhysReg() int64 {
	return b.NoPhysA + b.NoPhysS + b.NoPhysV + b.NoPhysM
}

// Total returns the sum of all attributed stall cycles.
func (b *StallBreakdown) Total() int64 {
	return b.ROBFull + b.IQFull() + b.NoPhysReg() + b.PortConflict + b.MemBusBusy
}

// OccBuckets is the number of occupancy histogram buckets: bucket i covers
// occupancies of i eighths of the structure's capacity, with the last bucket
// meaning completely full.
const OccBuckets = 9

// OccHist is a fixed-bucket occupancy histogram for a bounded structure (an
// issue queue, the reorder buffer). Occupancy is sampled once per
// instruction at its decode cycle and recorded as a fraction of capacity, so
// histograms from differently sized configurations are comparable.
type OccHist struct {
	// Cap is the structure capacity the samples were taken against.
	Cap int64
	// Counts[i] is the number of samples whose occupancy fell in bucket i
	// (floor(occ * (OccBuckets-1) / Cap), clamped).
	Counts [OccBuckets]int64
}

// OccTable maps each occupancy 0..capacity of a structure to its bucket,
// built once per structure size so a sample needs no division.
type OccTable []uint8

// NewOccTable returns bucket floor(occ*(OccBuckets-1)/capacity) for every
// occ in 0..capacity, with no division. A capacity <= 0 has no table.
func NewOccTable(capacity int) OccTable {
	if capacity <= 0 {
		return nil
	}
	t, b := make(OccTable, capacity+1), 0
	for occ := range t {
		for b < OccBuckets-1 && (b+1)*capacity <= occ*(OccBuckets-1) {
			b++
		}
		t[occ] = uint8(b)
	}
	return t
}

// Observe records one occupancy sample through the structure's table,
// clamping occ into [0, capacity]; an empty table records nothing.
func (h *OccHist) Observe(t OccTable, occ int) {
	if len(t) > 0 {
		h.Cap = int64(len(t) - 1)
		h.Counts[t[min(max(occ, 0), len(t)-1)]]++
	}
}

// Samples returns the total number of recorded samples.
func (h *OccHist) Samples() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Occupancy bundles the per-structure occupancy histograms of one OOOVA
// run. The reference machine has no bounded windows, so its runs leave the
// zero value.
type Occupancy struct {
	ROB OccHist
	IQA OccHist
	IQS OccHist
	IQV OccHist
	IQM OccHist
}

// RunStats is the measurement record produced by one simulator run. Both the
// reference and OOOVA simulators fill one.
type RunStats struct {
	// Machine names the configuration ("REF", "OOOVA", ...).
	Machine string
	// Program names the trace.
	Program string
	// Cycles is the total execution time.
	Cycles int64
	// States is the (FU2,FU1,MEM) occupancy breakdown.
	States Breakdown
	// MemPortBusy is the number of cycles the address bus issued a request.
	MemPortBusy int64
	// MemRequests is the number of requests (element transfers) on the
	// address bus — the traffic measure of Figure 13.
	MemRequests int64
	// Instructions is the dynamic instruction count simulated.
	Instructions int64
	// VRegPortConflictCycles counts stall cycles charged to vector
	// register-file port conflicts.
	VRegPortConflictCycles int64
	// Mispredicts counts front-end control mispredictions (OOOVA only).
	Mispredicts int64
	// EliminatedLoads counts dynamically eliminated load instructions
	// (§6, OOOVA with SLE/VLE only).
	EliminatedLoads int64
	// EliminatedRequests counts the address-bus requests those loads would
	// have issued.
	EliminatedRequests int64
	// ElidedStores counts dead spill stores removed by the
	// ElideDeadSpillStores extension, and ElidedRequests their requests.
	ElidedStores   int64
	ElidedRequests int64
	// DecodeStallRegs counts decode stalls waiting for a free physical
	// register (OOOVA only).
	DecodeStallRegs int64
	// DecodeStallQueue counts decode stalls waiting for an issue-queue slot.
	DecodeStallQueue int64
	// DecodeStallROB counts decode stalls waiting for a reorder-buffer slot.
	DecodeStallROB int64
	// Stalls refines the DecodeStall* sums into per-resource causes and adds
	// port-conflict and memory-bus wait attribution.
	Stalls StallBreakdown
	// Occupancy holds the per-structure occupancy histograms (OOOVA only).
	Occupancy Occupancy
}

// RunStats has one binary encoding, the payload of the store's result
// entries: Machine and Program as uvarint-length-prefixed bytes, then every
// int64 leaf as a zigzag varint in the order leaves lists them. Every value
// has exactly one encoding — the decoder rejects overlong varints — so a
// payload that decodes re-encodes to the same bytes. A field added to
// RunStats must be added to leaves, and the store's entry epoch bumped.

// numLeaves is the number of int64 leaves in a RunStats; it sizes the
// stack buffer leaves fills, so a stale count costs an allocation, not
// correctness.
const numLeaves = 1 + NumStates + 12 + 11 + 5*(1+OccBuckets)

// leaves appends a pointer to every int64 leaf of r, in encoding order, to
// dst.
func (r *RunStats) leaves(dst []*int64) []*int64 {
	dst = append(dst, &r.Cycles)
	for i := range r.States {
		dst = append(dst, &r.States[i])
	}
	dst = append(dst, &r.MemPortBusy, &r.MemRequests, &r.Instructions,
		&r.VRegPortConflictCycles, &r.Mispredicts, &r.EliminatedLoads,
		&r.EliminatedRequests, &r.ElidedStores, &r.ElidedRequests,
		&r.DecodeStallRegs, &r.DecodeStallQueue, &r.DecodeStallROB)
	s := &r.Stalls
	dst = append(dst, &s.ROBFull, &s.IQFullA, &s.IQFullS, &s.IQFullV,
		&s.IQFullM, &s.NoPhysA, &s.NoPhysS, &s.NoPhysV, &s.NoPhysM,
		&s.PortConflict, &s.MemBusBusy)
	o := &r.Occupancy
	for _, h := range [...]*OccHist{&o.ROB, &o.IQA, &o.IQS, &o.IQV, &o.IQM} {
		dst = append(dst, &h.Cap)
		for i := range h.Counts {
			dst = append(dst, &h.Counts[i])
		}
	}
	return dst
}

// AppendBinary appends r's binary encoding to b. It never fails.
func (r *RunStats) AppendBinary(b []byte) ([]byte, error) {
	for _, s := range [...]string{r.Machine, r.Program} {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	var buf [numLeaves]*int64
	for _, v := range r.leaves(buf[:0]) {
		b = binary.AppendVarint(b, *v)
	}
	return b, nil
}

// UnmarshalBinary decodes an AppendBinary encoding into r. It returns an
// error, never panics, on a truncated payload, an overlong or overflowing
// varint, a string length running past the payload, or trailing bytes; on
// error r is left partly written.
func (r *RunStats) UnmarshalBinary(p []byte) error {
	for _, s := range [...]*string{&r.Machine, &r.Program} {
		n, k, err := uvarint(p)
		if err != nil {
			return err
		}
		p = p[k:]
		if n > uint64(len(p)) {
			return fmt.Errorf("metrics: string length %d runs past the %d-byte payload", n, len(p))
		}
		*s, p = string(p[:n]), p[n:]
	}
	var buf [numLeaves]*int64
	for _, v := range r.leaves(buf[:0]) {
		u, k, err := uvarint(p)
		if err != nil {
			return err
		}
		*v, p = int64(u>>1)^-int64(u&1), p[k:]
	}
	if len(p) > 0 {
		return fmt.Errorf("metrics: %d trailing bytes after RunStats", len(p))
	}
	return nil
}

// uvarint reads one minimally encoded uvarint from the front of p and
// returns it with its length.
func uvarint(p []byte) (uint64, int, error) {
	u, k := binary.Uvarint(p)
	switch {
	case k == 0:
		return 0, 0, errors.New("metrics: RunStats payload truncated")
	case k < 0:
		return 0, 0, errors.New("metrics: varint overflows 64 bits")
	case k > 1 && p[k-1] == 0:
		return 0, 0, errors.New("metrics: overlong varint")
	}
	return u, k, nil
}

// MemPortIdlePct returns the Figure 4/6 metric: the percentage of execution
// cycles in which the address port issued no request.
func (r *RunStats) MemPortIdlePct() float64 {
	if r.Cycles == 0 {
		return 0
	}
	idle := r.Cycles - r.MemPortBusy
	return 100 * float64(idle) / float64(r.Cycles)
}

// Speedup returns base.Cycles / r.Cycles: the speedup of r over base.
func Speedup(base, r *RunStats) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// TrafficReduction returns the Figure 13 metric: base requests divided by
// r's requests (>1 means r sends less traffic).
func TrafficReduction(base, r *RunStats) float64 {
	if r.MemRequests == 0 {
		return 0
	}
	return float64(base.MemRequests) / float64(r.MemRequests)
}

// IdealCycles computes the paper's IDEAL lower bound for a trace: "the total
// number of cycles consumed by the most heavily used vector unit (FU1, FU2,
// or MEM)", eliminating all data and memory dependences.
//
// FU2-only work (mul/div/sqrt) must run on FU2; the remaining vector
// computation may be split freely between FU1 and FU2, so the best
// achievable per-FU load is the balanced partition. The MEM bound is the
// address-bus occupancy: one cycle per element for vector references and one
// cycle per scalar reference.
func IdealCycles(t *trace.Trace) int64 {
	var fu2Only, flexible, memCycles int64
	for i := range t.Insns {
		in := &t.Insns[i]
		switch {
		case in.Op.ExecUnit() == isa.UnitV:
			if in.Op.NeedsFU2() {
				fu2Only += int64(in.EffVL())
			} else {
				flexible += int64(in.EffVL())
			}
		case in.Op.IsMem():
			memCycles += int64(in.EffVL())
		}
	}
	// Best max(FU1, FU2) given FU2 must hold fu2Only.
	bal := (fu2Only + flexible + 1) / 2
	fuBound := fu2Only
	if bal > fuBound {
		fuBound = bal
	}
	if memCycles > fuBound {
		return memCycles
	}
	return fuBound
}

// IdealSpeedup returns the IDEAL speedup line of Figures 5, 8 and 9 for a
// program: reference cycles over the IDEAL bound.
func IdealSpeedup(refCycles int64, t *trace.Trace) float64 {
	ideal := IdealCycles(t)
	if ideal == 0 {
		return 0
	}
	return float64(refCycles) / float64(ideal)
}
