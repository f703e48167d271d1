package bpred

import "fmt"

// BTBEntryState is the exported form of one BTB entry.
type BTBEntryState struct {
	Valid       bool
	Tag, Target uint64
	Ctr         uint8
}

// State is the serialisable mid-run state of a Predictor (see package sched
// on checkpointing).
type State struct {
	BTB        [BTBEntries]BTBEntryState
	RAS        [RASDepth]uint64
	Top        int
	Mispredict int64
}

// Snapshot captures the predictor state.
func (p *Predictor) Snapshot() State {
	st := State{RAS: p.ras, Top: p.top, Mispredict: p.mispredict}
	for i, e := range p.btb {
		st.BTB[i] = BTBEntryState{Valid: e.valid, Tag: e.tag, Target: e.target, Ctr: uint8(e.ctr)}
	}
	return st
}

// Restore replaces the predictor state with st. A return-stack top outside
// [0, RASDepth] or a BTB counter above 3 is an error and leaves the
// predictor unchanged.
func (p *Predictor) Restore(st State) error {
	if st.Top < 0 || st.Top > RASDepth {
		return fmt.Errorf("bpred: return-stack top %d outside [0, %d]", st.Top, RASDepth)
	}
	for i, e := range st.BTB {
		if e.Ctr > 3 {
			return fmt.Errorf("bpred: BTB entry %d counter %d exceeds 3", i, e.Ctr)
		}
	}
	for i, e := range st.BTB {
		p.btb[i] = btbEntry{valid: e.Valid, tag: e.Tag, target: e.Target, ctr: counter(e.Ctr)}
	}
	p.ras = st.RAS
	p.top = st.Top
	p.mispredict = st.Mispredict
	return nil
}
