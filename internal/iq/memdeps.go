package iq

import "iter"

// MemDeps is a trace's memory-dependence plan. For each memory
// instruction, in program order, it lists the older ones among the last
// maxScan that its Dependence check visits: those whose byte ranges
// overlap its own, with a store among the two, oldest first. Which
// accesses conflict depends on the trace alone, not on the machine, so one
// plan serves every run on the trace; a queue following it (Follow)
// visits the entries within its own window, in place of querying a range
// index for every access.
type MemDeps struct {
	// first[k] is where access k's conflicts start in back; they end at
	// first[k+1].
	first []uint32
	// back holds each conflict of access k as its distance back, minus
	// one: the conflicting access is k-1-back[j].
	back []uint8
}

// Len returns the number of memory instructions the plan covers.
func (d *MemDeps) Len() int { return len(d.first) - 1 }

// Conflicts returns the accesses access k conflicts with, each as its
// distance back minus one, oldest first. The slice belongs to the plan.
func (d *MemDeps) Conflicts(k int) []uint8 { return d.back[d.first[k]:d.first[k+1]] }

// Access is the byte range [Start, End] and store flag of one memory
// instruction, as the Range stage computes them.
type Access struct {
	Start, End uint64
	Store      bool
}

// maxPlanConflicts bounds a plan's size: a trace whose memory instructions
// average more conflicts than this has no plan, and its runs find their
// conflicts through the range index, so a plan never costs more than
// about 4+maxPlanConflicts bytes per memory instruction. The paper's
// programs average under one.
const maxPlanConflicts = 8

// BuildMemDeps returns the plan of the n accesses accesses yields in
// program order, or nil if they average more than maxPlanConflicts
// conflicts each. It finds each access's conflicts the way a queue
// without a plan does, through a range index over the last maxScan
// accesses.
func BuildMemDeps(n int, accesses iter.Seq[Access]) *MemDeps {
	return buildMemDeps(n, accesses, maxPlanConflicts*n)
}

// buildMemDeps is BuildMemDeps with a bound on the total conflicts.
func buildMemDeps(n int, accesses iter.Seq[Access], limit int) *MemDeps {
	q := &MemQueue{scanWin: maxScan} // a window of entries; no slots are booked
	first := make([]uint32, 1, n+1)
	back := make([]uint8, 0, n/2)
	for a := range accesses {
		back = q.overlapping(back, a.Start, a.End, a.Store)
		if len(back) > limit {
			return nil
		}
		q.record(a.Start, a.End, a.Store, 0, -1)
		first = append(first, uint32(len(back)))
	}
	d := &MemDeps{first: first, back: make([]uint8, len(back))}
	copy(d.back, back)
	return d
}
