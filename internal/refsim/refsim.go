// Package refsim simulates the reference architecture of the paper: an
// in-order vector machine modelled after the Convex C3400 (§2.1).
//
// Machine structure:
//
//   - A scalar unit executing all instructions involving A and S registers,
//     issuing at most one instruction per cycle.
//   - A vector unit with two computation units: FU2 (general purpose,
//     executes everything) and FU1 (restricted: everything except multiply,
//     divide and square root), both fully pipelined.
//   - One memory unit (MEM) sharing a single address bus for all scalar and
//     vector transactions.
//   - Eight vector registers of 128 × 64-bit elements, grouped in banks of
//     two registers sharing two read ports and one write port.
//   - Chaining from functional units to other functional units and to the
//     store unit; memory loads are NOT chained into functional units.
//
// The simulator is trace-driven and interval-timed: instructions are
// processed in program order; each one computes its earliest feasible issue
// cycle from operand readiness (with chaining), register hazards (the
// machine has no renaming, so WAW and WAR stall), port conflicts and unit
// occupancy. In-order issue is enforced by a blocking decode: instruction
// i+1 never issues before instruction i.
package refsim

import (
	"oovec/internal/isa"
	"oovec/internal/metrics"
	"oovec/internal/probe"
	"oovec/internal/sched"
	"oovec/internal/trace"
	"oovec/internal/vregfile"
)

// Config parameterises the reference machine.
type Config struct {
	// MemLatency is the main-memory latency in cycles (the paper sweeps
	// 1..100; default 50).
	MemLatency int64
	// ScalarMemLatency is the latency of scalar references. Vector
	// machines of this class cached scalar data (the paper: data caches
	// were not used in vector processors "except to cache scalar data"),
	// so scalar references see a short cache latency rather than main
	// memory. Default 6.
	ScalarMemLatency int64
	// TakenBranchPenalty is the fetch-bubble charged for taken branches
	// (the in-order machine has no branch prediction). Default 2.
	TakenBranchPenalty int64
	// Sink, when non-nil, receives per-instruction lifecycle events and
	// stall-cause notifications (package probe). Observation only: attaching
	// a sink never changes the run's RunStats. The in-order machine models
	// no fetch/decode/commit stages, so those event fields are -1.
	Sink probe.Sink
}

// DefaultConfig returns the paper's reference configuration.
func DefaultConfig() Config {
	return Config{MemLatency: 50, ScalarMemLatency: 6, TakenBranchPenalty: 2}
}

// vregState is the hazard-tracking state of one logical vector register.
type vregState struct {
	timing        vregfile.Timing
	lastReadStart int64 // most recent consumer's issue cycle (WAR)
	hasValue      bool
}

// WithDefaults returns the configuration with every defaulted field filled
// with the value Run would use — the canonical form callers key caches on
// (mirroring ooosim.Config.WithDefaults).
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills the latency fields Run has always defaulted.
func (c Config) withDefaults() Config {
	if c.MemLatency <= 0 {
		c.MemLatency = 50
	}
	if c.ScalarMemLatency <= 0 {
		c.ScalarMemLatency = 6
	}
	return c
}

// Run simulates the trace on the reference machine and returns its
// measurements.
func Run(t *trace.Trace, cfg Config) *metrics.RunStats {
	return NewMachine(cfg).Run(t)
}

// Machine is a reusable reference-simulator instance, mirroring
// ooosim.Machine: Reset restores the power-on state without reallocating
// (the reference machine's structure is fixed, so reuse never rebuilds),
// amortising the interval-list and scratch storage across many runs.
//
// A Machine is not safe for concurrent use; give each worker its own.
type Machine struct {
	m *machine
}

// NewMachine builds a reusable reference machine for the configuration.
func NewMachine(cfg Config) *Machine {
	return &Machine{m: newMachine(cfg)}
}

// Run simulates the trace from power-on state: RunCheckpointed with zero
// options.
//
//ovlint:hotpath the reusable-machine run path is the sweep inner loop and must stay allocation-free
func (mm *Machine) Run(t *trace.Trace) *metrics.RunStats {
	st, _, _ := mm.RunCheckpointed(t, RunOpts{})
	return st
}

// Reset restores the power-on state under a (possibly different)
// configuration.
func (mm *Machine) Reset(cfg Config) { mm.m.reset(cfg) }

// machine is the reference-simulator state.
type machine struct {
	cfg Config //ovlint:config a checkpoint is only restored into a machine already reset to the identical configuration

	fu1, fu2, bus *sched.Monotonic
	ports         *vregfile.BankedFile

	aReady       [isa.NumLogicalA]int64
	sReady       [isa.NumLogicalS]int64
	vregs        [isa.NumLogicalV]vregState
	maskT        vregfile.Timing
	maskHasValue bool

	// In-order front-end state, kept on the machine (rather than as run
	// locals) so a mid-run checkpoint captures it.
	prevIssue   int64 // issue cycle of the previous instruction (-1 at start)
	lastVLTime  int64 // completion of the last SetVL/SetVS
	bubble      int64 // extra delay for the next instruction (taken branch)
	lastCycle   int64
	memRequests int64

	// stalls accumulates the per-cause stall attribution; on the in-order
	// machine only the shared-address-bus wait is tracked incrementally
	// (port conflicts are derived from the port file at end of run).
	stalls metrics.StallBreakdown

	readX, writeX int64 //ovlint:config crossbar latencies, fixed by the ISA at construction

	// Per-instruction scratch buffers, kept on the machine so reused runs
	// allocate nothing for them.
	vReadsBuf [4]int     //ovlint:config per-instruction scratch, dead between steps
	rbuf      [4]isa.Reg //ovlint:config per-instruction scratch, dead between steps
}

func newMachine(cfg Config) *machine {
	return &machine{
		cfg:       cfg.withDefaults(),
		fu1:       sched.NewMonotonic(),
		fu2:       sched.NewMonotonic(),
		bus:       sched.NewMonotonic(),
		ports:     vregfile.NewBankedFile(isa.NumLogicalV),
		prevIssue: -1,
		readX:     int64(isa.ReadXbar(isa.MachineRef)),
		writeX:    int64(isa.WriteXbar(isa.MachineRef)),
	}
}

// reset restores the power-on state in place, keeping allocated storage.
//
//ovlint:coldpath once per run, amortised over the whole trace
func (m *machine) reset(cfg Config) {
	m.cfg = cfg.withDefaults()
	m.fu1.Reset()
	m.fu2.Reset()
	m.bus.Reset()
	m.ports.Reset()
	m.aReady = [isa.NumLogicalA]int64{}
	m.sReady = [isa.NumLogicalS]int64{}
	m.vregs = [isa.NumLogicalV]vregState{}
	m.maskT = vregfile.Timing{}
	m.maskHasValue = false
	m.prevIssue = -1
	m.lastVLTime, m.bubble, m.lastCycle, m.memRequests = 0, 0, 0, 0
	m.stalls = metrics.StallBreakdown{}
}

// reserveFor sizes the unit interval lists from the trace so a reused
// machine's steady-state run never grows them: a vector computation books
// at most one interval on each FU allocator and a memory instruction at
// most one bus interval.
//
//ovlint:coldpath one reservation pass per run, amortised over the whole trace
func (m *machine) reserveFor(t *trace.Trace) {
	nV, nMem := 0, 0
	for i := range t.Insns {
		switch t.Insns[i].Op.ExecUnit() {
		case isa.UnitV:
			nV++
		case isa.UnitMem:
			nMem++
		}
	}
	m.fu1.Reserve(nV + 1)
	m.fu2.Reserve(nV + 1)
	m.bus.Reserve(nMem + 1)
}

// Begin implements sim.Model: it restores the power-on state (or resume,
// when set) and sizes the unit interval lists from the trace.
//
//ovlint:coldpath once per run, amortised over the whole trace
func (m *machine) Begin(t *trace.Trace, resume *Checkpoint) error {
	m.reset(m.cfg)
	if resume != nil {
		if err := m.restore(resume); err != nil {
			return err
		}
	}
	m.reserveFor(t)
	return nil
}

// note tracks the latest activity for end-of-run accounting.
func (m *machine) note(c int64) {
	if c > m.lastCycle {
		m.lastCycle = c
	}
}

// scalarReady returns when a scalar operand can be read.
func (m *machine) scalarReady(r isa.Reg) int64 {
	switch r.Class {
	case isa.RegA:
		return m.aReady[r.Idx]
	case isa.RegS:
		return m.sReady[r.Idx]
	}
	return 0
}

// Step implements sim.Model: it processes one dynamic instruction through
// the in-order pipeline.
//
//ovlint:hotpath runs once per dynamic instruction; any allocation here multiplies by trace length
func (m *machine) Step(i int, in *isa.Instruction) {
	cfg := m.cfg
	fu1, fu2, bus, ports := m.fu1, m.fu2, m.bus, m.ports
	aReady, sReady, vregs := &m.aReady, &m.sReady, &m.vregs
	readX, writeX := m.readX, m.writeX
	const vstart = int64(isa.VectorStartup)

	vl := int64(in.EffVL())
	occ := vl // unit occupancy: startup dead time + one cycle per element
	if in.Op.IsVector() {
		occ += vstart
	}

	// In-order single issue: one instruction per cycle, plus any branch
	// bubble from the previous instruction.
	cand := m.prevIssue + 1 + m.bubble
	m.bubble = 0

	// Operand readiness.
	vReads := m.vReadsBuf[:0]
	consumerChainable := in.Op.ExecUnit() == isa.UnitV || in.Op.IsStore()
	for _, r := range in.Reads(m.rbuf[:]) {
		switch r.Class {
		case isa.RegA, isa.RegS:
			if rdy := m.scalarReady(r); rdy > cand {
				cand = rdy
			}
		case isa.RegV:
			st := &vregs[r.Idx]
			if st.hasValue {
				if rdy := st.timing.ReadyFor(consumerChainable); rdy > cand {
					cand = rdy
				}
			}
			vReads = append(vReads, int(r.Idx))
		case isa.RegM:
			if m.maskHasValue {
				if rdy := m.maskT.ReadyFor(consumerChainable); rdy > cand {
					cand = rdy
				}
			}
		}
	}

	// Vector instructions execute under the architected VL/VS, so they
	// serialise behind the last SetVL/SetVS.
	if in.Op.IsVector() && m.lastVLTime > cand {
		cand = m.lastVLTime
	}

	// Register hazards on the destination (no renaming): WAW waits for
	// the previous value's last element; WAR waits for the most recent
	// reader to have started (it then stays one element ahead).
	vWrite := -1
	if in.WritesReg() {
		switch in.Dst.Class {
		case isa.RegV:
			st := &vregs[in.Dst.Idx]
			if st.hasValue && st.timing.Complete+1 > cand {
				cand = st.timing.Complete + 1 // WAW
			}
			if st.lastReadStart+1 > cand {
				cand = st.lastReadStart + 1 // WAR
			}
			vWrite = int(in.Dst.Idx)
		case isa.RegM:
			if m.maskHasValue && m.maskT.Complete+1 > cand {
				cand = m.maskT.Complete + 1
			}
		}
	}

	var issue int64
	switch in.Op.ExecUnit() {
	case isa.UnitV:
		// Pick the functional unit: FU2-only ops go to FU2; flexible
		// ops go to whichever frees first (FU1 preferred on ties).
		fu := fu1
		if in.Op.NeedsFU2() || fu2.NextFree() < fu1.NextFree() {
			fu = fu2
		}
		if in.Op.NeedsFU2() {
			fu = fu2
		}
		if nf := fu.NextFree(); nf > cand {
			cand = nf
		}
		// Reading operands costs the crossbar traversal.
		cand += readX
		issue = ports.Acquire(vReads, vWrite, cand, occ)
		fu.Allocate(issue, occ)
		lat := int64(isa.ExecLatency(in.Op)) + vstart
		tm := vregfile.Timing{
			ChainStart: issue + lat + writeX,
			Complete:   issue + lat + writeX + vl - 1,
		}
		if in.Dst.Class == isa.RegV {
			st := &vregs[in.Dst.Idx]
			st.timing, st.hasValue = tm, true
		} else if in.Dst.Class == isa.RegM {
			m.maskT, m.maskHasValue = tm, true
		} else if in.Dst.Class == isa.RegS {
			// Reductions deliver a scalar.
			sReady[in.Dst.Idx] = tm.Complete
		}
		m.note(tm.Complete)

	case isa.UnitMem:
		if nf := bus.NextFree(); nf > cand {
			m.stalls.MemBusBusy += nf - cand
			if s := cfg.Sink; s != nil {
				s.Stall(probe.CauseMemBusBusy, nf-cand)
			}
			cand = nf
		}
		var issuePorts int64 = cand
		if in.Op.IsVector() {
			issuePorts = ports.Acquire(vReads, vWrite, cand, occ)
		}
		issue = bus.Allocate(issuePorts, occ)
		m.memRequests += vl
		if in.Op.IsLoad() {
			if in.Op.IsVector() {
				tm := vregfile.Timing{
					ChainStart: issue + vstart + cfg.MemLatency + writeX,
					Complete:   issue + vstart + cfg.MemLatency + writeX + vl - 1,
					FromMem:    true,
				}
				st := &vregs[in.Dst.Idx]
				st.timing, st.hasValue = tm, true
				m.note(tm.Complete)
			} else {
				rdy := issue + cfg.ScalarMemLatency + 1
				if in.Dst.Class == isa.RegA {
					aReady[in.Dst.Idx] = rdy
				} else {
					sReady[in.Dst.Idx] = rdy
				}
				m.note(rdy)
			}
		} else {
			// Stores: no observed latency; done when last request issued.
			m.note(issue + occ)
		}

	case isa.UnitA, isa.UnitS:
		issue = cand
		lat := int64(isa.ExecLatency(in.Op))
		done := issue + lat
		if in.Dst.Class == isa.RegA {
			aReady[in.Dst.Idx] = done
		} else if in.Dst.Class == isa.RegS {
			sReady[in.Dst.Idx] = done
		}
		if in.Op == isa.OpSetVL || in.Op == isa.OpSetVS {
			m.lastVLTime = done
		}
		m.note(done)

	case isa.UnitCtl:
		issue = cand
		if in.Taken {
			m.bubble = cfg.TakenBranchPenalty
		}
		m.note(issue + 1)

	default: // OpNop
		issue = cand
		m.note(issue + 1)
	}

	// Record reader starts for WAR tracking.
	for _, vr := range vReads {
		if issue > vregs[vr].lastReadStart {
			vregs[vr].lastReadStart = issue
		}
	}
	m.prevIssue = issue

	if s := cfg.Sink; s != nil {
		s.Insn(probe.Event{
			Index: i, Op: in.Op,
			Fetch: -1, Decode: -1, Issue: issue,
			Exec: issue, Complete: m.lastCycle, Commit: -1,
		})
	}
}

// Finish implements sim.Model: it assembles the run statistics.
//
//ovlint:coldpath once per run, amortised over the whole trace
func (m *machine) Finish(t *trace.Trace) *metrics.RunStats {
	total := m.lastCycle + 1
	st := &metrics.RunStats{
		Machine:                "REF",
		Program:                t.Name,
		Cycles:                 total,
		Instructions:           int64(t.Len()),
		MemPortBusy:            m.bus.BusyCycles(),
		MemRequests:            m.memRequests,
		VRegPortConflictCycles: m.ports.ConflictCycles(),
		Stalls:                 m.stalls,
	}
	st.Stalls.PortConflict = st.VRegPortConflictCycles
	st.States = metrics.StateBreakdown(m.fu2.Intervals(), m.fu1.Intervals(), m.bus.Intervals(), total)
	return st
}
