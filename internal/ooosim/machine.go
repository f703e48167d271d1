package ooosim

import (
	"fmt"

	"oovec/internal/bpred"
	"oovec/internal/iq"
	"oovec/internal/isa"
	"oovec/internal/metrics"
	"oovec/internal/probe"
	"oovec/internal/rename"
	"oovec/internal/rob"
	"oovec/internal/sched"
	"oovec/internal/trace"
	"oovec/internal/vregfile"
)

// Result bundles the measurements of one OOOVA run with its final rename
// tables.
type Result struct {
	Stats *metrics.RunStats
	// Tables exposes the final rename tables (for rollback demos/tests).
	Tables map[isa.RegClass]*rename.Table
}

// Run simulates the trace on the OOOVA and returns its measurements.
func Run(t *trace.Trace, cfg Config) *Result {
	return NewMachine(cfg).Run(t)
}

// Machine is an OOOVA simulator instance built for one configuration. Its
// state is machine-sized (register files, queues, reorder buffer), so
// production code builds one per run, as the package-level Run does; Run
// may still be called again on the same machine, and each call starts from
// power-on state.
//
// A Machine is not safe for concurrent use.
type Machine struct {
	m *machine
}

// NewMachine builds a machine for the configuration.
func NewMachine(cfg Config) *Machine {
	return &Machine{m: newMachine(cfg)}
}

// Run simulates the trace from power-on state: RunCheckpointed with zero
// options. The returned Result's Tables alias machine state and are
// invalidated by the next Run; callers that retain them (the precise-trap
// demos) should use the package-level Run instead.
//
//ovlint:hotpath every run enters the instruction loop here; an allocation outside the per-run setup multiplies by trace length
func (mm *Machine) Run(t *trace.Trace) *Result {
	r, _, _ := mm.RunCheckpointed(t, RunOpts{})
	return r
}

// Begin implements sim.Model: it attaches the trace's memory-dependence
// plan to the M queue, if a run has recorded one for its window (see
// Finish), and restores the power-on state (or resume, when set). A queue
// without a plan records one from the power-on state, sized for the
// trace's memory instructions. A resumed M queue
// holds one entry per memory instruction before the checkpoint's position;
// another count would walk the wrong part of the plan.
//
//ovlint:coldpath once per run, amortised over the whole trace
func (m *machine) Begin(t *trace.Trace, resume *Checkpoint) error {
	d, _ := t.Memo().(*iq.MemDeps)
	m.mQ.Follow(d)
	m.reset()
	if resume == nil {
		if m.mQ.Recording() {
			m.mQ.Reserve(memInsns(t.Insns))
		}
		return nil
	}
	if mem := memInsns(t.Insns[:resume.NextInsn]); resume.MQ.N != mem {
		return fmt.Errorf("ooosim: checkpoint M queue holds %d entries, the trace %d memory instructions before instruction %d",
			resume.MQ.N, mem, resume.NextInsn)
	}
	return m.restore(resume)
}

// machine is the OOOVA simulation state.
type machine struct {
	cfg Config //ovlint:config a checkpoint is only restored into a machine built for the identical configuration

	// tables is indexed by register class (RegNone unused); a flat array
	// replaces a map lookup on every rename and operand lookup.
	tables [isa.NumRegClasses]*rename.Table

	// Physical register value-availability timing.
	aReady  []int64
	sReady  []int64
	vTiming []vregfile.Timing
	mTiming []vregfile.Timing

	// Memory tags (§6), indexed by physical register.
	vTags, sTags, aTags *rename.TagFile

	// ports is the paper's dedicated per-register ports.
	ports  *vregfile.FlatFile
	fu1    *sched.Gap
	fu2    *sched.Gap
	msched *memScheduler
	// states counts the bookings folded out of fu1, fu2 and the bus (Step).
	states metrics.StateBreakdown

	aQ, sQ, vQ *iq.Queue
	mQ         *iq.MemQueue
	rob        *rob.ROB
	pred       *bpred.Predictor

	readX, writeX int64 //ovlint:config crossbar latencies, fixed by the ISA at construction

	prevFetch    int64
	nextFetchMin int64
	prevDecode   int64
	lastVLReady  int64
	lastCycle    int64

	eliminatedLoads    int64
	eliminatedRequests int64

	// stalls and occ accumulate the per-cause stall attribution and the
	// per-structure occupancy histograms. Always on (cheap, deterministic,
	// allocation-free), so a run's stats never depend on whether a probe
	// sink was attached.
	stalls   metrics.StallBreakdown
	occ      metrics.Occupancy
	robOcc   metrics.OccTable //ovlint:config occupancy bucket table of the machine's ROB size
	queueOcc metrics.OccTable //ovlint:config occupancy bucket table of the machine's queue size

	// suppressFrom, when >= 0, marks the first instruction of a squashed
	// window (fault injection): those instructions never commit, so their
	// old physical registers are never released.
	suppressFrom int //ovlint:config set only by RunWithFault, which never checkpoints; reset to -1 for every other run
	// records, when non-nil, collects every instruction's rename record
	// for RunWithFault's rollback.
	records []rename.Record //ovlint:config set only by RunWithFault, which never checkpoints; nil for every other run

	// Per-instruction scratch buffers. Keeping them on the (heap-allocated)
	// machine rather than on step's stack keeps the hot path free of
	// escape-analysis allocations when the slices cross interface calls.
	srcBuf   [4]srcOp   //ovlint:config per-instruction scratch, dead between steps
	vReadBuf [4]int     //ovlint:config per-instruction scratch, dead between steps
	portBuf  [1]int     //ovlint:config per-instruction scratch, dead between steps
	regBuf   [4]isa.Reg //ovlint:config per-instruction scratch, dead between steps
}

// srcOp is a resolved source operand (class + physical register).
type srcOp struct {
	class isa.RegClass
	phys  int
}

func newMachine(cfg Config) *machine {
	cfg = cfg.WithDefaults()
	mQ := iq.NewMemQueue(cfg.QueueSlots)
	m := &machine{
		cfg:     cfg,
		aReady:  make([]int64, PhysARegs),
		sReady:  make([]int64, PhysSRegs),
		vTiming: make([]vregfile.Timing, cfg.PhysVRegs),
		mTiming: make([]vregfile.Timing, PhysMRegs),
		vTags:   rename.NewTagFile(cfg.PhysVRegs),
		sTags:   rename.NewTagFile(PhysSRegs),
		aTags:   rename.NewTagFile(PhysARegs),
		ports:   vregfile.NewFlatFile(cfg.PhysVRegs),
		fu1:     sched.NewGap(),
		fu2:     sched.NewGap(),
		msched:  newMemScheduler(mQ),
		aQ:      iq.NewQueue(cfg.QueueSlots),
		sQ:      iq.NewQueue(cfg.QueueSlots),
		vQ:      iq.NewQueue(cfg.QueueSlots),
		mQ:      mQ,
		rob:     rob.New(cfg.ROBSize, cfg.CommitWidth),
		pred:    bpred.New(),
		readX:   int64(isa.ReadXbar(isa.MachineOOO)),
		writeX:  int64(isa.WriteXbar(isa.MachineOOO)),

		robOcc:   metrics.NewOccTable(cfg.ROBSize),
		queueOcc: metrics.NewOccTable(cfg.QueueSlots),

		prevFetch:    -1,
		prevDecode:   -1,
		suppressFrom: -1,
	}
	m.tables[isa.RegA] = rename.MustNewTable(isa.RegA, PhysARegs)
	m.tables[isa.RegS] = rename.MustNewTable(isa.RegS, PhysSRegs)
	m.tables[isa.RegV] = rename.MustNewTable(isa.RegV, cfg.PhysVRegs)
	m.tables[isa.RegM] = rename.MustNewTable(isa.RegM, PhysMRegs)
	return m
}

// reset restores the power-on state in place, under the machine's own
// configuration.
//
//ovlint:coldpath once per run, amortised over the whole trace
func (m *machine) reset() {
	for _, tb := range m.tables {
		if tb != nil {
			tb.Reset()
		}
	}
	for i := range m.aReady {
		m.aReady[i] = 0
	}
	for i := range m.sReady {
		m.sReady[i] = 0
	}
	for i := range m.vTiming {
		m.vTiming[i] = vregfile.Timing{}
	}
	for i := range m.mTiming {
		m.mTiming[i] = vregfile.Timing{}
	}
	m.vTags.Reset()
	m.sTags.Reset()
	m.aTags.Reset()
	m.ports.Reset()
	m.fu1.Reset()
	m.fu2.Reset()
	m.msched.reset()
	m.states = metrics.StateBreakdown{}
	m.aQ.Reset()
	m.sQ.Reset()
	m.vQ.Reset()
	m.mQ.Reset()
	m.rob.Reset()
	m.pred.Reset()

	m.prevFetch, m.prevDecode = -1, -1
	m.nextFetchMin, m.lastVLReady, m.lastCycle = 0, 0, 0
	m.eliminatedLoads, m.eliminatedRequests = 0, 0
	m.stalls = metrics.StallBreakdown{}
	m.occ = metrics.Occupancy{}
	m.suppressFrom = -1
	m.records = nil
}

// tableMap exposes the class-indexed tables in the public map form.
func (m *machine) tableMap() map[isa.RegClass]*rename.Table {
	tm := make(map[isa.RegClass]*rename.Table, 4)
	for class, tb := range m.tables {
		if tb != nil {
			tm[isa.RegClass(class)] = tb
		}
	}
	return tm
}

func (m *machine) note(c int64) { m.lastCycle = max(m.lastCycle, c) }

// usesVReg reports whether the instruction reads or writes a vector
// register (the §6.2 criterion for renaming at the Dependence stage).
func usesVReg(in *isa.Instruction) bool {
	return in.Dst.Class == isa.RegV || in.Src1.Class == isa.RegV ||
		in.Src2.Class == isa.RegV
}

// scalarPhysReady returns the readiness of a scalar/mask physical register.
func (m *machine) scalarReadyFor(class isa.RegClass, phys int) int64 {
	switch class {
	case isa.RegA:
		return m.aReady[phys]
	case isa.RegS:
		return m.sReady[phys]
	}
	return 0
}

// allocDst renames the destination register into rec, in place, and
// returns the cycle the new physical register is available.
func (m *machine) allocDst(in *isa.Instruction, rec *rename.Record) int64 {
	np, op, rdy, ok := m.tables[in.Dst.Class].Allocate(int(in.Dst.Idx))
	if !ok {
		// Guaranteed impossible for numPhysical > numLogical: every prior
		// allocation's matching release has already been recorded.
		panic(fmt.Sprintf("ooosim: %v free list empty", in.Dst.Class)) //ovlint:allow hotpath panic path, unreachable in a valid run
	}
	// Field by field: a composite literal is built on the stack and copied
	// in mixed widths, which stalls the copy's loads on its byte store.
	rec.Class, rec.Logical, rec.OldPhys, rec.NewPhys, rec.HasRename = in.Dst.Class, int(in.Dst.Idx), op, np, true
	return rdy
}

// Step implements sim.Model: it processes one dynamic instruction through
// the full pipeline.
//
//ovlint:hotpath runs once per dynamic instruction; any allocation here multiplies by trace length
func (m *machine) Step(idx int, in *isa.Instruction) {
	cfg := &m.cfg
	vl := int64(in.EffVL())
	elim := cfg.LoadElim

	// ---------------- Fetch ----------------
	fetch := m.prevFetch + 1
	if m.nextFetchMin > fetch {
		fetch = m.nextFetchMin
	}
	m.prevFetch = fetch

	// ---------------- Decode / Rename ----------------
	dec := fetch + 1
	if m.prevDecode+1 > dec {
		dec = m.prevDecode + 1
	}
	if c := m.rob.AdmitConstraint(); c > dec {
		m.stalls.ROBFull += c - dec
		if s := cfg.Sink; s != nil {
			s.Stall(probe.CauseROBFull, c-dec)
		}
		dec = c
	}
	// The target queue's slots, stall counter and occupancy histogram are
	// chosen once: decode stalls on the slots and samples them below.
	unit := in.Op.ExecUnit()
	var q *iq.Slots
	var qFull *int64
	var qOcc *metrics.OccHist
	switch unit {
	case isa.UnitA, isa.UnitCtl:
		q, qFull, qOcc = &m.aQ.Slots, &m.stalls.IQFullA, &m.occ.IQA
	case isa.UnitS:
		q, qFull, qOcc = &m.sQ.Slots, &m.stalls.IQFullS, &m.occ.IQS
	case isa.UnitV:
		q, qFull, qOcc = &m.vQ.Slots, &m.stalls.IQFullV, &m.occ.IQV
	case isa.UnitMem:
		q, qFull, qOcc = &m.mQ.Slots, &m.stalls.IQFullM, &m.occ.IQM
	}
	if q != nil {
		if c := q.AdmitConstraint(); c > dec {
			*qFull += c - dec
			if s := cfg.Sink; s != nil {
				s.Stall(probe.CauseIQFull, c-dec)
			}
			dec = c
		}
	}

	// §6.2: with vector load elimination, instructions touching vector
	// registers are renamed at the Dependence stage of the memory pipeline,
	// not at decode.
	vleDefer := elim == ElimSLEVLE && usesVReg(in)

	// Look up source physical registers before any destination rename (a
	// source naming the same architectural register reads the old mapping).
	srcs := m.srcBuf[:0]
	for _, r := range in.Reads(m.regBuf[:]) {
		srcs = append(srcs, srcOp{r.Class, m.tables[r.Class].Lookup(int(r.Idx))})
	}

	// Destination rename (deferred for vector-register users under VLE).
	var rec rename.Record
	var dstReadyAt int64
	writesReg := in.WritesReg()
	deferredAlloc := vleDefer && writesReg && in.Dst.Class == isa.RegV
	if writesReg && !deferredAlloc {
		dstReadyAt = m.allocDst(in, &rec)
		if dstReadyAt > dec && !vleDefer {
			m.noteNoPhys(in.Dst.Class, dstReadyAt-dec)
			dec = dstReadyAt
		}
	}
	m.prevDecode = dec

	// Occupancy sampling: how full the reorder buffer and the target issue
	// queue were at the cycle this instruction cleared decode.
	m.occ.ROB.Observe(m.robOcc, m.rob.Occupied(dec))
	if q != nil {
		qOcc.Observe(m.queueOcc, q.Occupied(dec))
	}

	var issue, execStart, complete int64
	switch unit {
	case isa.UnitA, isa.UnitS:
		ready := dec + 1
		for _, s := range srcs {
			if r := m.scalarReadyFor(s.class, s.phys); r > ready {
				ready = r
			}
		}
		if dstReadyAt > ready {
			ready = dstReadyAt
		}
		q := m.aQ
		if unit == isa.UnitS {
			q = m.sQ
		}
		issue = q.Issue(dec+1, ready)
		lat := int64(isa.ExecLatency(in.Op))
		done := issue + lat
		if writesReg {
			switch in.Dst.Class {
			case isa.RegA:
				m.aReady[rec.NewPhys] = done
				if elim != ElimNone {
					m.aTags.Invalidate(rec.NewPhys)
				}
			case isa.RegS:
				m.sReady[rec.NewPhys] = done
				if elim != ElimNone {
					m.sTags.Invalidate(rec.NewPhys)
				}
			}
		}
		if in.Op == isa.OpSetVL || in.Op == isa.OpSetVS {
			m.lastVLReady = done
		}
		execStart, complete = issue, done

	case isa.UnitCtl:
		issue = m.aQ.Issue(dec+1, dec+1)
		resolve := issue + 1
		var mis bool
		switch in.Op {
		case isa.OpBranch:
			mis = m.pred.ResolveBranch(in.PC, in.Taken, in.Addr)
		case isa.OpJump:
			mis = m.pred.ResolveJump(in.PC, in.Addr)
		case isa.OpCall:
			mis = m.pred.Call(in.PC, in.Addr)
		case isa.OpReturn:
			mis = m.pred.Return(in.Addr)
		}
		if mis {
			m.nextFetchMin = resolve + MispredictPenalty
		}
		execStart, complete = issue, resolve

	case isa.UnitV:
		issue, execStart, complete = m.execVector(in, dec, vl, vleDefer, &rec)

	case isa.UnitMem:
		issue, execStart, complete = m.execMem(in, dec, vl, vleDefer, &rec)

	default: // nop
		issue, execStart, complete = dec+1, dec+1, dec+2
	}

	// ---------------- Commit ----------------
	readyC := complete
	if cfg.Commit == rob.PolicyEarly {
		readyC = execStart
	}
	commit := m.rob.Commit(readyC)
	if rec.HasRename && !(m.suppressFrom >= 0 && idx >= m.suppressFrom) {
		m.tables[rec.Class].Release(rec.OldPhys, commit)
	}
	if m.records != nil {
		m.records = append(m.records, rec)
	}
	m.note(complete)
	m.note(commit)

	if s := cfg.Sink; s != nil {
		s.Insn(probe.Event{
			Index: idx, Op: in.Op,
			Fetch: fetch, Decode: dec, Issue: issue,
			Exec: execStart, Complete: complete, Commit: commit,
		})
	}

	// Every later FU booking starts after a later decode (at issue+readX),
	// and every later bus booking at or after the store buffer's floor,
	// which is at most dec: the breakdown below the floor is final.
	if idx%metrics.FoldEvery == metrics.FoldEvery-1 {
		m.states.Fold(m.fu2, m.fu1, m.msched.bus, m.msched.floor(dec))
	}
}

// noteNoPhys charges free-list-empty stall cycles to the destination class.
//
//ovlint:hotpath called on the decode path when the free list is the constraint
func (m *machine) noteNoPhys(class isa.RegClass, cycles int64) {
	switch class {
	case isa.RegA:
		m.stalls.NoPhysA += cycles
	case isa.RegS:
		m.stalls.NoPhysS += cycles
	case isa.RegV:
		m.stalls.NoPhysV += cycles
	case isa.RegM:
		m.stalls.NoPhysM += cycles
	}
	if s := m.cfg.Sink; s != nil {
		s.Stall(probe.CauseNoPhysReg, cycles)
	}
}

// execVector handles vector computation instructions.
func (m *machine) execVector(in *isa.Instruction, dec, vl int64, vleDefer bool, rec *rename.Record) (issue, execStart, complete int64) {
	cfg := &m.cfg
	enterQ := dec + 1
	if vleDefer {
		// All vector-register users flow in order through the memory
		// pipeline's three stages and rename at the Dependence stage.
		depT := m.mQ.Advance(dec + 1)
		enterQ = depT + 1
	}
	var dstReadyAt int64
	if vleDefer && in.WritesReg() && in.Dst.Class == isa.RegV {
		dstReadyAt = m.allocDst(in, rec)
	}

	ready := enterQ
	if m.lastVLReady > ready {
		ready = m.lastVLReady
	}
	if dstReadyAt > ready {
		ready = dstReadyAt
	}
	vReads := m.vReadBuf[:0]
	for _, r := range in.Reads(m.regBuf[:]) {
		switch r.Class {
		case isa.RegV:
			p := m.tables[isa.RegV].Lookup(int(r.Idx))
			vReads = append(vReads, p)
			if t := m.vTiming[p].ReadyFor(true); t > ready {
				ready = t
			}
		case isa.RegA, isa.RegS:
			p := m.tables[r.Class].Lookup(int(r.Idx))
			if t := m.scalarReadyFor(r.Class, p); t > ready {
				ready = t
			}
		case isa.RegM:
			p := m.tables[isa.RegM].Lookup(0)
			if t := m.mTiming[p].ReadyFor(true); t > ready {
				ready = t
			}
		}
	}
	issue = m.vQ.Issue(enterQ, ready)

	// Coordinate the functional unit and the register-file ports on a
	// common start cycle. Unit occupancy includes the vector startup dead
	// time.
	occ := vl + int64(isa.VectorStartup)
	vWrite := -1
	if in.Dst.Class == isa.RegV {
		vWrite = rec.NewPhys
	}
	start := issue + m.readX
	var fu *sched.Gap
	for {
		fu = m.fu2
		s2 := fu.Peek(start, occ)
		if !in.Op.NeedsFU2() {
			if s1 := m.fu1.Peek(start, occ); s1 <= s2 {
				fu, s2 = m.fu1, s1
			}
		}
		if p := m.ports.Peek(vReads, vWrite, s2); p > s2 {
			start = p
			continue
		}
		start = s2
		break
	}
	fu.Allocate(start, occ)
	m.ports.Acquire(vReads, vWrite, start, occ)

	lat := int64(isa.ExecLatency(in.Op)) + int64(isa.VectorStartup)
	tm := vregfile.Timing{
		ChainStart: start + lat + m.writeX,
		Complete:   start + lat + m.writeX + vl - 1,
	}
	switch in.Dst.Class {
	case isa.RegV:
		m.vTiming[rec.NewPhys] = tm
		if cfg.LoadElim != ElimNone {
			m.vTags.Invalidate(rec.NewPhys)
		}
	case isa.RegM:
		m.mTiming[rec.NewPhys] = tm
	case isa.RegS:
		m.sReady[rec.NewPhys] = tm.Complete
		if cfg.LoadElim != ElimNone {
			m.sTags.Invalidate(rec.NewPhys)
		}
	}
	return issue, start, tm.Complete
}

// memInsns returns the number of memory instructions among insns: the
// M-queue entries execMem records for them, one each (Record or
// RecordPending), after a Dependence check unless it eliminates a load.
func memInsns(insns []isa.Instruction) int {
	mem := 0
	for i := range insns {
		if insns[i].Op.ExecUnit() == isa.UnitMem {
			mem++
		}
	}
	return mem
}

// execMem handles all memory instructions, including the §6 elimination.
func (m *machine) execMem(in *isa.Instruction, dec, vl int64, vleDefer bool, rec *rename.Record) (issue, execStart, complete int64) {
	cfg := &m.cfg
	elim := cfg.LoadElim
	depT := m.mQ.Advance(dec + 1)
	rstart, rend := in.MemRange()
	isStore := in.Op.IsStore()
	isVector := in.Op.IsVector()
	taggable := in.Op != isa.OpVGather && in.Op != isa.OpVScatter
	occ := vl // bus occupancy: startup dead time + one request per element
	if isVector {
		occ += int64(isa.VectorStartup)
	}

	tag := rename.Tag{Start: rstart, End: rend, VL: uint16(vl), VS: in.VS,
		Sz: isa.ElemBytes, Valid: true}
	if !isVector {
		tag.VL, tag.VS = 1, 0
	}

	// ---- Vector load elimination (§6.1) ----
	if in.Op == isa.OpVLoad && elim == ElimSLEVLE {
		if match := m.vTags.FindExact(tag); match >= 0 {
			old := m.tables[isa.RegV].AliasTo(int(in.Dst.Idx), match)
			*rec = rename.Record{Class: isa.RegV, Logical: int(in.Dst.Idx),
				OldPhys: old, NewPhys: match, HasRename: true}
			m.eliminatedLoads++
			m.eliminatedRequests += vl
			// The load completes in "the time it takes to do the rename".
			m.mQ.Record(rstart, rend, false, depT, depT)
			return depT, depT, depT + 1
		}
	}
	// ---- Scalar load elimination (SLE) ----
	if !isVector && in.Op.IsLoad() && elim != ElimNone {
		tf := m.sTags
		if in.Dst.Class == isa.RegA {
			tf = m.aTags
		}
		if match := tf.FindExact(tag); match >= 0 {
			// The value is copied register-to-register; the rename table is
			// not affected (§6.1). Completion is the copy latency.
			srcReady := m.scalarReadyFor(in.Dst.Class, match)
			done := depT + 1
			if srcReady > done {
				done = srcReady
			}
			if in.Dst.Class == isa.RegA {
				m.aReady[rec.NewPhys] = done
				m.aTags.Set(rec.NewPhys, tag)
			} else {
				m.sReady[rec.NewPhys] = done
				m.sTags.Set(rec.NewPhys, tag)
			}
			m.eliminatedLoads++
			m.eliminatedRequests++
			m.mQ.Record(rstart, rend, false, depT, depT)
			return depT, depT, done
		}
	}

	// ---- Normal memory access ----
	// Deferred vector rename (§6.2) for non-eliminated vector ops.
	var dstReadyAt int64
	if vleDefer && in.WritesReg() && in.Dst.Class == isa.RegV {
		dstReadyAt = m.allocDst(in, rec)
	}

	ready := depT
	if dstReadyAt > ready {
		ready = dstReadyAt
	}
	// Vector references execute under the architected VL/VS.
	if isVector && m.lastVLReady > ready {
		ready = m.lastVLReady
	}
	// Store data / gather-scatter index operands.
	for _, r := range in.Reads(m.regBuf[:]) {
		switch r.Class {
		case isa.RegV:
			p := m.tables[isa.RegV].Lookup(int(r.Idx))
			// Stores chain from functional units (data streamed as produced).
			if t := m.vTiming[p].ReadyFor(isStore); t > ready {
				ready = t
			}
			if isStore {
				// Reading the data register occupies its read port.
				m.portBuf[0] = p
				ready = m.ports.Acquire(m.portBuf[:], -1, ready, vl)
			}
		case isa.RegA, isa.RegS:
			p := m.tables[r.Class].Lookup(int(r.Idx))
			if t := m.scalarReadyFor(r.Class, p); t > ready {
				ready = t
			}
		}
	}
	// Dynamic memory disambiguation (Dependence stage outcome).
	if c := m.mQ.ConflictConstraint(rstart, rend, isStore); c > ready {
		ready = c
	}
	// §5: with late commit, stores execute only at the head of the reorder
	// buffer.
	if isStore && cfg.Commit == rob.PolicyLate {
		if c := m.rob.LastCommit(); c > ready {
			ready = c
		}
	}

	if in.Op.IsLoad() {
		busStart := m.msched.placeNow(ready, occ, vl)
		m.noteBusWait(busStart - ready)
		m.mQ.Record(rstart, rend, false, busStart, busStart+occ)
		if isVector {
			dataAt := busStart + int64(isa.VectorStartup) + cfg.MemLatency
			wStart := m.ports.Acquire(nil, rec.NewPhys, dataAt, vl)
			tm := vregfile.Timing{
				ChainStart: wStart + m.writeX,
				Complete:   wStart + m.writeX + vl - 1,
				FromMem:    true,
			}
			m.vTiming[rec.NewPhys] = tm
			if elim != ElimNone {
				if taggable {
					m.vTags.Set(rec.NewPhys, tag)
				} else {
					m.vTags.Invalidate(rec.NewPhys)
				}
			}
			return busStart, busStart, tm.Complete
		}
		done := busStart + cfg.ScalarMemLatency + 1
		if in.Dst.Class == isa.RegA {
			m.aReady[rec.NewPhys] = done
			if elim != ElimNone {
				m.aTags.Set(rec.NewPhys, tag)
			}
		} else {
			m.sReady[rec.NewPhys] = done
			if elim != ElimNone {
				m.sTags.Set(rec.NewPhys, tag)
			}
		}
		return busStart, busStart, done
	}

	// Stores: "do not result in observed latency". Under early commit the
	// bus slot is placed lazily in ready order (see memScheduler). Under
	// late commit the store reaches the head of the reorder buffer, hands
	// its data to the store unit, and commits; the requests then stream
	// out (the slot is placed at once so younger conflicting accesses see
	// the real bus occupancy).
	var busStart, storeDone int64
	if cfg.Commit == rob.PolicyLate {
		busStart = m.msched.placeNow(ready, occ, vl)
		m.noteBusWait(busStart - ready)
		m.mQ.Record(rstart, rend, true, busStart, busStart+occ)
		storeDone = ready
	} else {
		// The store leaves the queue for the store buffer at once.
		busStart = ready
		storeDone = ready + occ
		entry := m.mQ.RecordPending(rstart, rend, m.msched.nextStore(), busStart)
		m.msched.deferStore(ready, depT, occ, vl, entry)
	}
	if elim != ElimNone {
		// Tag the stored register (it mirrors the stored-to memory) and
		// conservatively invalidate every overlapping tag elsewhere.
		ownV, ownS, ownA := -1, -1, -1
		if data := in.Src1; data.Class != isa.RegNone {
			p := m.tables[data.Class].Lookup(int(data.Idx))
			if taggable {
				switch data.Class {
				case isa.RegV:
					m.vTags.Set(p, tag)
					ownV = p
				case isa.RegS:
					m.sTags.Set(p, tag)
					ownS = p
				case isa.RegA:
					m.aTags.Set(p, tag)
					ownA = p
				}
			}
		}
		m.vTags.InvalidateOverlap(rstart, rend, ownV)
		m.sTags.InvalidateOverlap(rstart, rend, ownS)
		m.aTags.InvalidateOverlap(rstart, rend, ownA)
	}
	return busStart, busStart, storeDone
}

// noteBusWait charges cycles a ready memory access waited for the address
// bus.
//
//ovlint:hotpath called once per placed memory access
func (m *machine) noteBusWait(cycles int64) {
	if cycles <= 0 {
		return
	}
	m.stalls.MemBusBusy += cycles
	if s := m.cfg.Sink; s != nil {
		s.Stall(probe.CauseMemBusBusy, cycles)
	}
}

// Finish implements sim.Model: it assembles the run statistics, and keeps
// the plan the M queue recorded in the trace's memo, unless the memo holds
// one of a window at least as wide. Later runs whose window it covers follow
// it, resumes included.
//
//ovlint:coldpath once per run, amortised over the whole trace
func (m *machine) Finish(t *trace.Trace) *Result {
	if d := m.mQ.Recorded(); d != nil {
		t.UpdateMemo(func(old any) any {
			if o, _ := old.(*iq.MemDeps); o != nil && o.Window() >= d.Window() {
				return old
			}
			return d
		})
	}
	m.note(m.msched.finishAll())
	total := m.lastCycle + 1
	m.states.Fold(m.fu2, m.fu1, m.msched.bus, total)
	st := &metrics.RunStats{
		Machine:                m.cfg.Name(),
		Program:                t.Name,
		Cycles:                 total,
		Instructions:           int64(t.Len()),
		MemPortBusy:            m.states.States.MemBusy(),
		MemRequests:            m.msched.requests,
		VRegPortConflictCycles: m.ports.ConflictCycles(),
		Mispredicts:            m.pred.Mispredictions(),
		EliminatedLoads:        m.eliminatedLoads,
		EliminatedRequests:     m.eliminatedRequests,
		DecodeStallRegs:        m.stalls.NoPhysReg(),
		DecodeStallQueue:       m.stalls.IQFull(),
		DecodeStallROB:         m.stalls.ROBFull,
		Stalls:                 m.stalls,
		Occupancy:              m.occ,
	}
	// PortConflict is derived from the port file at end of run (it is part
	// of the port state, so it is not accumulated — and not checkpointed —
	// separately).
	st.Stalls.PortConflict = st.VRegPortConflictCycles
	st.States = m.states.States
	return &Result{Stats: st, Tables: m.tableMap()}
}
