package iq

// MemDeps is a trace's memory-dependence plan, as a queue recorded it
// (Recorded). For each memory instruction, in program order, it lists the
// older ones among the last Window that its Dependence check visits: those
// whose byte ranges overlap its own, with a store among the two, oldest
// first. Which accesses conflict depends on the trace alone, not on the
// machine, so one plan serves every run on the trace whose window it
// covers; a queue following it (Follow) visits the entries within its own
// window, in place of querying a range index for every access.
type MemDeps struct {
	// first[k] is where access k's conflicts start in back; they end at
	// first[k+1].
	first []uint32
	// back holds each conflict of access k as its distance back, minus
	// one: the conflicting access is k-1-back[j].
	back []uint8
	// win is the window the plan was recorded at.
	win int
}

// Len returns the number of memory instructions the plan covers.
func (d *MemDeps) Len() int { return len(d.first) - 1 }

// Window returns the number of older entries the plan looks back over:
// the recording queue's scan window.
func (d *MemDeps) Window() int { return d.win }

// Conflicts returns the accesses access k conflicts with, each as its
// distance back minus one, oldest first. The slice belongs to the plan.
func (d *MemDeps) Conflicts(k int) []uint8 { return d.back[d.first[k]:d.first[k+1]] }

// add appends the conflicts of the next access.
func (d *MemDeps) add(backs []uint8) {
	d.back = append(d.back, backs...)
	d.first = append(d.first, uint32(len(d.back)))
}

// maxPlanConflicts bounds a plan's size: a queue whose accesses so far
// average more conflicts than this stops recording, and the rest of its run
// finds its conflicts through the range index without keeping them, so a
// plan never costs more than about 4+maxPlanConflicts bytes per memory
// instruction. The paper's programs average under one. A variable so that
// the package's tests can record plans of any density.
var maxPlanConflicts = 8
