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

// portFile is the vector register file port model: the paper's dedicated
// per-register ports (vregfile.FlatFile), or — for the ablation showing why
// the paper abandoned it — the reference machine's banked organisation.
type portFile interface {
	Acquire(reads []int, write int, earliest, dur int64) int64
	Peek(reads []int, write int, earliest int64) int64
	ConflictCycles() int64
	Reset()
}

// Result bundles the measurements of one OOOVA run with the optional
// reorder-buffer rename records (for precise-trap rollback demos).
type Result struct {
	Stats *metrics.RunStats
	// Records holds one rename record per instruction when
	// Config.CollectRecords is set (index-aligned with the trace).
	Records []rename.Record
	// Tables exposes the final rename tables (for rollback demos/tests).
	Tables map[isa.RegClass]*rename.Table
}

// Run simulates the trace on the OOOVA and returns its measurements.
func Run(t *trace.Trace, cfg Config) *Result {
	return NewMachine(cfg).Run(t)
}

// Machine is a reusable OOOVA simulator instance. Unlike the one-shot Run,
// a Machine amortises its internal state (rename tables, queues, allocator
// storage) across runs: Reset restores the power-on state without
// reallocating when the configuration's structural sizes are unchanged.
// Machines for up to maxCachedShapes previously seen shapes are retained,
// so a worker sweeping a register-count grid rebuilds each shape once, not
// once per grid point.
//
// A Machine is not safe for concurrent use; give each worker its own.
type Machine struct {
	m *machine
	// shapes retires machines by structural shape when Reset switches
	// configuration, so revisiting a shape reuses its storage.
	shapes map[machineShape]*machine
}

// maxCachedShapes bounds the retired-machine cache: each retired machine
// holds megabytes of state, and a caller resetting across an unbounded
// structural sweep must not accumulate them all. The repo's grids visit at
// most ten shapes; beyond the cap, uncached shapes simply rebuild.
const maxCachedShapes = 16

// machineShape is the comparable key of a configuration's structural sizes
// — exactly the fields sameShape compares.
type machineShape struct {
	physV, physA, physS, physM      int
	queueSlots, robSize, commitWide int
	banked                          bool
}

// shapeOf extracts the structural shape of a resolved configuration.
func shapeOf(cfg Config) machineShape {
	return machineShape{
		physV: cfg.PhysVRegs, physA: cfg.PhysARegs,
		physS: cfg.PhysSRegs, physM: cfg.PhysMRegs,
		queueSlots: cfg.QueueSlots, robSize: cfg.ROBSize,
		commitWide: cfg.CommitWidth, banked: cfg.BankedPorts,
	}
}

// NewMachine builds a reusable machine for the configuration.
func NewMachine(cfg Config) *Machine {
	return &Machine{m: newMachine(cfg)}
}

// Run simulates the trace from power-on state: RunCheckpointed with zero
// options. The returned Result's Tables and Records alias machine state and
// are invalidated by the next Run or Reset; callers that retain them (the
// precise-trap demos) should use the package-level Run instead.
//
//ovlint:hotpath the reusable-machine run path is the sweep inner loop and must stay allocation-free
func (mm *Machine) Run(t *trace.Trace) *Result {
	r, _, _ := mm.RunCheckpointed(t, RunOpts{})
	return r
}

// Reset restores the power-on state under a (possibly different)
// configuration. State is reused when cfg keeps the same structural sizes
// (register files, queues, ROB, port organisation); otherwise the current
// machine is retired to the shape cache and the new shape's machine is
// revived from it — or built once, on first encounter.
//
//ovlint:coldpath shape changes rebuild storage once per shape, amortised over the sweep
func (mm *Machine) Reset(cfg Config) {
	cfg = cfg.WithDefaults()
	if mm.m.sameShape(cfg) {
		mm.m.reset(cfg)
	} else {
		if mm.shapes == nil {
			mm.shapes = make(map[machineShape]*machine)
		}
		if len(mm.shapes) < maxCachedShapes {
			mm.shapes[shapeOf(mm.m.cfg)] = mm.m
		}
		if prev, ok := mm.shapes[shapeOf(cfg)]; ok {
			prev.reset(cfg)
			mm.m = prev
		} else {
			mm.m = newMachine(cfg)
		}
	}
}

// Begin implements sim.Model: it restores the power-on state (or resume,
// when set) and sizes the growable buffers from the trace.
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
	if m.cfg.CollectRecords && cap(m.records) < t.Len() {
		m.records = append(make([]rename.Record, 0, t.Len()), m.records...)
	}
	return nil
}

// reserveFor sizes the big growable buffers from the trace so a reused
// machine's steady-state run never grows them: an instruction books at
// most one interval on its issue queue's port allocator, a vector
// instruction at most one interval on each FU allocator, a memory
// instruction one bus interval and one slot per memory-front stage, and a
// store at most one pending-store record.
//
//ovlint:coldpath one reservation pass per run, amortised over the whole trace
func (m *machine) reserveFor(t *trace.Trace) {
	nA, nS, nV, nMem, nStores := 0, 0, 0, 0, 0
	for i := range t.Insns {
		switch op := t.Insns[i].Op; op.ExecUnit() {
		case isa.UnitA, isa.UnitCtl:
			nA++
		case isa.UnitS:
			nS++
		case isa.UnitV:
			nV++
		case isa.UnitMem:
			nMem++
			if op.IsStore() {
				nStores++
			}
		}
	}
	m.aQ.Reserve(nA + 1)
	m.sQ.Reserve(nS + 1)
	m.vQ.Reserve(nV + 1)
	nFront := nMem
	if m.cfg.LoadElim == ElimSLEVLE {
		// §6.2: every vector-register user advances through the memory
		// front pipeline, not just memory instructions.
		nFront += nV
	}
	m.mQ.Reserve(nFront + 1)
	m.fu1.Reserve(nV + 1)
	m.fu2.Reserve(nV + 1)
	m.msched.reserve(nMem+1, nStores+1)
}

// machine is the OOOVA simulation state.
type machine struct {
	cfg Config //ovlint:config a checkpoint is only restored into a machine already reset to the identical configuration

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

	ports  portFile
	fu1    *sched.Gap
	fu2    *sched.Gap
	msched *memScheduler

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
	elidedStores       int64
	elidedRequests     int64
	spillPend          map[[2]uint64]int

	// stalls and occ accumulate the per-cause stall attribution and the
	// per-structure occupancy histograms. Always on (cheap, deterministic,
	// allocation-free), so a run's stats never depend on whether a probe
	// sink was attached.
	stalls metrics.StallBreakdown
	occ    metrics.Occupancy

	// suppressFrom, when >= 0, marks the first instruction of a squashed
	// window (fault injection): those instructions never commit, so their
	// old physical registers are never released.
	suppressFrom int

	records []rename.Record

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

// newPortFile selects the register-file port model.
func newPortFile(cfg Config) portFile {
	if cfg.BankedPorts {
		return vregfile.NewBankedFile(cfg.PhysVRegs)
	}
	return vregfile.NewFlatFile(cfg.PhysVRegs)
}

func newMachine(cfg Config) *machine {
	cfg = cfg.WithDefaults()
	m := &machine{
		cfg:     cfg,
		aReady:  make([]int64, cfg.PhysARegs),
		sReady:  make([]int64, cfg.PhysSRegs),
		vTiming: make([]vregfile.Timing, cfg.PhysVRegs),
		mTiming: make([]vregfile.Timing, cfg.PhysMRegs),
		vTags:   rename.NewTagFile(cfg.PhysVRegs),
		sTags:   rename.NewTagFile(cfg.PhysSRegs),
		aTags:   rename.NewTagFile(cfg.PhysARegs),
		ports:   newPortFile(cfg),
		fu1:     sched.NewGap(),
		fu2:     sched.NewGap(),
		msched:  newMemScheduler(cfg.QueueSlots),
		aQ:      iq.NewQueue(cfg.QueueSlots),
		sQ:      iq.NewQueue(cfg.QueueSlots),
		vQ:      iq.NewQueue(cfg.QueueSlots),
		mQ:      iq.NewMemQueue(cfg.QueueSlots),
		rob:     rob.New(cfg.ROBSize, cfg.CommitWidth),
		pred:    bpred.New(),
		readX:   int64(isa.ReadXbar(isa.MachineOOO)),
		writeX:  int64(isa.WriteXbar(isa.MachineOOO)),

		prevFetch:    -1,
		prevDecode:   -1,
		suppressFrom: -1,
	}
	m.tables[isa.RegA] = rename.MustNewTable(isa.RegA, cfg.PhysARegs)
	m.tables[isa.RegS] = rename.MustNewTable(isa.RegS, cfg.PhysSRegs)
	m.tables[isa.RegV] = rename.MustNewTable(isa.RegV, cfg.PhysVRegs)
	m.tables[isa.RegM] = rename.MustNewTable(isa.RegM, cfg.PhysMRegs)
	if cfg.ElideDeadSpillStores {
		m.spillPend = make(map[[2]uint64]int)
	}
	return m
}

// sameShape reports whether cfg keeps every structural size of the current
// configuration, so reset can reuse the allocated state.
func (m *machine) sameShape(cfg Config) bool {
	c := &m.cfg
	return cfg.PhysVRegs == c.PhysVRegs && cfg.PhysARegs == c.PhysARegs &&
		cfg.PhysSRegs == c.PhysSRegs && cfg.PhysMRegs == c.PhysMRegs &&
		cfg.QueueSlots == c.QueueSlots && cfg.ROBSize == c.ROBSize &&
		cfg.CommitWidth == c.CommitWidth && cfg.BankedPorts == c.BankedPorts
}

// reset restores the power-on state in place; cfg must satisfy sameShape.
//
//ovlint:coldpath once per run, amortised over the whole trace
func (m *machine) reset(cfg Config) {
	m.cfg = cfg
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
	m.aQ.Reset()
	m.sQ.Reset()
	m.vQ.Reset()
	m.mQ.Reset()
	m.rob.Reset()
	m.pred.Reset()

	m.prevFetch, m.prevDecode = -1, -1
	m.nextFetchMin, m.lastVLReady, m.lastCycle = 0, 0, 0
	m.eliminatedLoads, m.eliminatedRequests = 0, 0
	m.elidedStores, m.elidedRequests = 0, 0
	m.stalls = metrics.StallBreakdown{}
	m.occ = metrics.Occupancy{}
	m.suppressFrom = -1
	m.records = m.records[:0]
	if cfg.ElideDeadSpillStores {
		if m.spillPend == nil {
			m.spillPend = make(map[[2]uint64]int)
		} else {
			clear(m.spillPend)
		}
	}
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

func (m *machine) note(c int64) {
	if c > m.lastCycle {
		m.lastCycle = c
	}
}

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

// allocDst renames the destination register, returning the rename record
// and the cycle the new physical register is available.
func (m *machine) allocDst(in *isa.Instruction) (rename.Record, int64) {
	tb := m.tables[in.Dst.Class]
	np, op, rdy, ok := tb.Allocate(int(in.Dst.Idx))
	if !ok {
		// Guaranteed impossible for numPhysical > numLogical: every prior
		// allocation's matching release has already been recorded.
		panic(fmt.Sprintf("ooosim: %v free list empty", in.Dst.Class)) //ovlint:allow hotpath panic path, unreachable in a valid run
	}
	return rename.Record{
		Class:     in.Dst.Class,
		Logical:   int(in.Dst.Idx),
		OldPhys:   op,
		NewPhys:   np,
		HasRename: true,
	}, rdy
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
	var qAdmit int64
	var qFull *int64
	switch in.Op.ExecUnit() {
	case isa.UnitA, isa.UnitCtl:
		qAdmit, qFull = m.aQ.AdmitConstraint(), &m.stalls.IQFullA
	case isa.UnitS:
		qAdmit, qFull = m.sQ.AdmitConstraint(), &m.stalls.IQFullS
	case isa.UnitV:
		qAdmit, qFull = m.vQ.AdmitConstraint(), &m.stalls.IQFullV
	case isa.UnitMem:
		qAdmit, qFull = m.mQ.AdmitConstraint(), &m.stalls.IQFullM
	}
	if qAdmit > dec {
		*qFull += qAdmit - dec
		if s := cfg.Sink; s != nil {
			s.Stall(probe.CauseIQFull, qAdmit-dec)
		}
		dec = qAdmit
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
		rec, dstReadyAt = m.allocDst(in)
		if dstReadyAt > dec && !vleDefer {
			m.noteNoPhys(in.Dst.Class, dstReadyAt-dec)
			dec = dstReadyAt
		}
	}
	m.prevDecode = dec

	// Occupancy sampling: how full the reorder buffer and the target issue
	// queue were at the cycle this instruction cleared decode.
	m.occ.ROB.Observe(m.rob.Occupied(dec), cfg.ROBSize)
	switch in.Op.ExecUnit() {
	case isa.UnitA, isa.UnitCtl:
		m.occ.IQA.Observe(m.aQ.Occupied(dec), cfg.QueueSlots)
	case isa.UnitS:
		m.occ.IQS.Observe(m.sQ.Occupied(dec), cfg.QueueSlots)
	case isa.UnitV:
		m.occ.IQV.Observe(m.vQ.Occupied(dec), cfg.QueueSlots)
	case isa.UnitMem:
		m.occ.IQM.Observe(m.mQ.Occupied(dec), cfg.QueueSlots)
	}

	var issue, execStart, complete int64
	switch in.Op.ExecUnit() {
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
		if in.Op.ExecUnit() == isa.UnitS {
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
			m.nextFetchMin = resolve + cfg.MispredictPenalty
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
	if cfg.CollectRecords {
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
		*rec, dstReadyAt = m.allocDst(in)
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
			tm := m.vTiming[p]
			if cfg.ChainLoads {
				tm.FromMem = false // ablation: pretend loads chain
			}
			if t := tm.ReadyFor(true); t > ready {
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
		if in.Op.NeedsFU2() {
			fu = m.fu2
		} else if m.fu1.Peek(start, occ) <= m.fu2.Peek(start, occ) {
			fu = m.fu1
		} else {
			fu = m.fu2
		}
		s2 := fu.Peek(start, occ)
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
			m.msched.recordEliminated(rstart, rend, depT)
			m.mQ.Admit(depT)
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
			m.msched.recordEliminated(rstart, rend, depT)
			m.mQ.Admit(depT)
			return depT, depT, done
		}
	}

	// ---- Normal memory access ----
	// Deferred vector rename (§6.2) for non-eliminated vector ops.
	var dstReadyAt int64
	if vleDefer && in.WritesReg() && in.Dst.Class == isa.RegV {
		*rec, dstReadyAt = m.allocDst(in)
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
	// Dead-spill-store elision (§6 future work) kills an exact-slot
	// predecessor BEFORE disambiguation, so the dying store is not forced
	// onto the bus by this store's own conflict scan.
	elide := cfg.ElideDeadSpillStores && cfg.Commit != rob.PolicyLate &&
		isStore && in.Spill && taggable
	if elide {
		if old, ok := m.spillPend[[2]uint64{rstart, rend}]; ok {
			if req, elided := m.msched.tryCancel(old); elided {
				m.elidedStores++
				m.elidedRequests += req
			}
		}
	}
	// Dynamic memory disambiguation (Dependence stage outcome).
	if c := m.msched.conflictConstraint(rstart, rend, isStore); c > ready {
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
		busStart := m.msched.placeLoad(ready, occ, vl, rstart, rend)
		m.noteBusWait(busStart - ready)
		m.mQ.Admit(busStart)
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
		busStart = m.msched.placeStoreNow(ready, occ, vl, rstart, rend)
		m.noteBusWait(busStart - ready)
		storeDone = ready
	} else if elide {
		// Hold the spill in the store buffer; if a later spill overwrites
		// exactly this slot first, the buffered store dies without ever
		// issuing requests.
		m.spillPend[[2]uint64{rstart, rend}] = m.msched.deferElidableStore(ready, occ, vl, rstart, rend)
		busStart = ready
		storeDone = ready + occ
	} else {
		m.msched.deferStore(ready, occ, vl, rstart, rend)
		busStart = ready
		storeDone = ready + occ
	}
	m.mQ.Admit(busStart)
	if elim != ElimNone {
		// Tag the stored register (it mirrors the stored-to memory) and
		// conservatively invalidate every overlapping tag elsewhere.
		ownV, ownS, ownA := -1, -1, -1
		if data := in.Src1; data.Class != isa.RegNone && !cfg.NoStoreTags {
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
		if cfg.ExactInvalidation {
			// Unsafe ablation: only kill tags covering exactly this range.
			m.vTags.InvalidateExact(rstart, rend, ownV)
			m.sTags.InvalidateExact(rstart, rend, ownS)
			m.aTags.InvalidateExact(rstart, rend, ownA)
		} else {
			m.vTags.InvalidateOverlap(rstart, rend, ownV)
			m.sTags.InvalidateOverlap(rstart, rend, ownS)
			m.aTags.InvalidateOverlap(rstart, rend, ownA)
		}
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

// Finish implements sim.Model: it assembles the run statistics.
//
//ovlint:coldpath once per run, amortised over the whole trace
func (m *machine) Finish(t *trace.Trace) *Result {
	m.note(m.msched.finishAll())
	total := m.lastCycle + 1
	st := &metrics.RunStats{
		Machine:                m.cfg.Name(),
		Program:                t.Name,
		Cycles:                 total,
		Instructions:           int64(t.Len()),
		MemPortBusy:            m.msched.bus.BusyCycles(),
		MemRequests:            m.msched.requests,
		VRegPortConflictCycles: m.ports.ConflictCycles(),
		Mispredicts:            m.pred.Mispredictions(),
		EliminatedLoads:        m.eliminatedLoads,
		EliminatedRequests:     m.eliminatedRequests,
		ElidedStores:           m.elidedStores,
		ElidedRequests:         m.elidedRequests,
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
	st.States = metrics.StateBreakdown(m.fu2.Intervals(), m.fu1.Intervals(),
		m.msched.bus.Intervals(), total)
	return &Result{Stats: st, Records: m.records, Tables: m.tableMap()}
}
