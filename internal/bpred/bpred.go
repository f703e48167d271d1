// Package bpred implements the OOOVA front-end branch predictors described
// in §2.2 of the paper: a 64-entry branch target buffer in which each entry
// has a 2-bit saturating counter, plus an 8-deep return-address stack for
// call/return sequences.
package bpred

// Paper parameters.
const (
	// BTBEntries is the number of branch-target-buffer entries.
	BTBEntries = 64
	// RASDepth is the return-address-stack depth.
	RASDepth = 8
)

// counter is a 2-bit saturating counter; values 2 and 3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	ctr    counter
}

// Predictor is the combined BTB + return stack. It is deterministic and
// allocation-free in steady state.
type Predictor struct {
	btb [BTBEntries]btbEntry
	ras [RASDepth]uint64
	top int // number of valid RAS entries

	mispredict int64
}

// New returns an empty predictor. Counters start at 1 (weakly not-taken).
func New() *Predictor {
	p := &Predictor{}
	for i := range p.btb {
		p.btb[i].ctr = 1
	}
	return p
}

func (p *Predictor) index(pc uint64) int { return int((pc >> 2) % BTBEntries) }

// PredictBranch consults the BTB for a conditional branch at pc and returns
// the predicted direction and target. Unknown branches predict not-taken.
func (p *Predictor) PredictBranch(pc uint64) (taken bool, target uint64) {
	e := &p.btb[p.index(pc)]
	if e.valid && e.tag == pc {
		return e.ctr.taken(), e.target
	}
	return false, 0
}

// ResolveBranch records the actual outcome of a conditional branch and
// reports whether the earlier prediction was wrong (counting the
// misprediction).
func (p *Predictor) ResolveBranch(pc uint64, taken bool, target uint64) (mispredicted bool) {
	predTaken, predTarget := p.PredictBranch(pc)
	mis := predTaken != taken || (taken && predTarget != target)
	e := &p.btb[p.index(pc)]
	if !e.valid || e.tag != pc {
		*e = btbEntry{valid: true, tag: pc, ctr: 1}
	}
	e.ctr = e.ctr.update(taken)
	if taken {
		e.target = target
	}
	if mis {
		p.mispredict++
	}
	return mis
}

// ResolveJump handles an unconditional jump: mispredicted only if the BTB
// did not know the target yet.
func (p *Predictor) ResolveJump(pc, target uint64) (mispredicted bool) {
	e := &p.btb[p.index(pc)]
	known := e.valid && e.tag == pc && e.target == target
	if !known {
		*e = btbEntry{valid: true, tag: pc, target: target, ctr: 3}
		p.mispredict++
		return true
	}
	return false
}

// Call pushes the return address (pc+4) on the return stack and resolves the
// call target like a jump.
func (p *Predictor) Call(pc, target uint64) (mispredicted bool) {
	if p.top < RASDepth {
		p.ras[p.top] = pc + 4
		p.top++
	} else {
		// Stack full: shift (oldest entry is lost), as real hardware does.
		copy(p.ras[:], p.ras[1:])
		p.ras[RASDepth-1] = pc + 4
	}
	return p.ResolveJump(pc, target)
}

// Return pops the return stack and reports a misprediction if the popped
// address does not match the actual return target (or the stack was empty).
func (p *Predictor) Return(actualTarget uint64) (mispredicted bool) {
	if p.top == 0 {
		p.mispredict++
		return true
	}
	p.top--
	if p.ras[p.top] != actualTarget {
		p.mispredict++
		return true
	}
	return false
}

// Mispredictions returns the number of mispredicted control transfers.
func (p *Predictor) Mispredictions() int64 { return p.mispredict }

// Reset restores the empty-predictor state (weakly not-taken counters,
// empty return stack) for machine reuse.
func (p *Predictor) Reset() {
	for i := range p.btb {
		p.btb[i] = btbEntry{ctr: 1}
	}
	p.top = 0
	p.mispredict = 0
}
