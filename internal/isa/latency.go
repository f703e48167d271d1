package isa

// Latency model (Table 1 of the paper).
//
// The table in the available text of the paper is partially garbled by OCR;
// the legible entries are kept verbatim and the rest are reconstructed with
// values conventional for the Convex C3400 generation:
//
//	read RF + crossbar:  1 cycle in REF, 0 in OOOVA  (legible: "(*) 0 in OOOVA, 1 in REF")
//	write crossbar:      1 cycle in REF, 2 in OOOVA  (legible: "write x-bar 1 | 2")
//	add/logic/shift:     3 scalar, 4 vector startup  (legible fragment "logic/shift 3 4")
//	mul:                 9 cycles                    (reconstructed from "34/9" pairs)
//	div/sqrt:            34 cycles                   (reconstructed from "34/9" pairs)
//
// Vector units are fully pipelined: a vector instruction with length VL
// occupies its functional unit for VL cycles and delivers one element per
// cycle after the startup latency.

// Machine distinguishes the two modelled implementations where their
// latencies differ.
type Machine uint8

const (
	// MachineRef is the in-order reference architecture (Convex C3400).
	MachineRef Machine = iota
	// MachineOOO is the out-of-order renaming architecture (OOOVA).
	MachineOOO
)

// Crossbar/register-file access latencies (cycles), per Table 1.
const (
	ReadXbarRef  = 1
	ReadXbarOOO  = 0
	WriteXbarRef = 1
	WriteXbarOOO = 2
)

// VectorStartup is the per-instruction vector startup overhead (Table 1's
// "vector startup" row, reconstructed): dead cycles a vector instruction
// occupies its unit before streaming elements, covering instruction setup
// and pipeline fill. It applies identically to both machines; the
// out-of-order machine hides it by overlapping instructions on different
// units, while in-order issue exposes it — which is why the paper's
// short-vector programs (trfd, dyfesm, flo52) suffer most on the reference
// machine.
const VectorStartup = 8

// ReadXbar returns the register-file read + crossbar traversal latency.
func ReadXbar(m Machine) int {
	if m == MachineOOO {
		return ReadXbarOOO
	}
	return ReadXbarRef
}

// WriteXbar returns the crossbar + register-file write latency.
func WriteXbar(m Machine) int {
	if m == MachineOOO {
		return WriteXbarOOO
	}
	return WriteXbarRef
}

// ExecLatency returns the functional latency of op in cycles: for scalar
// operations, the full execution latency; for vector operations, the startup
// latency until the first element emerges (the unit then produces one element
// per cycle). Memory operation latency is *not* included here: it is each
// machine's MemLatency configuration, because the paper varies it.
func ExecLatency(op Op) int {
	switch op {
	case OpNop:
		return 1
	case OpAAdd, OpAMove, OpSetVL, OpSetVS:
		return 1
	case OpAMul:
		return 3
	case OpSAdd, OpSLogic, OpSShift, OpSMove:
		return 3
	case OpSMul:
		return 9
	case OpSDiv, OpSSqrt:
		return 34
	case OpBranch, OpJump, OpCall, OpReturn:
		return 1
	case OpVAdd, OpVSAdd, OpVLogic, OpVShift, OpVCmp, OpVMerge:
		return 4
	case OpVMul, OpVSMul:
		return 9
	case OpVDiv, OpVSqrt:
		return 34
	case OpVReduce:
		// Tree reduction: startup of an add plus log2(MaxVL) combining steps.
		return 4 + 7
	case OpALoad, OpSLoad, OpVLoad, OpVGather,
		OpAStore, OpSStore, OpVStore, OpVScatter:
		return 0 // supplied by the memory model
	}
	return 1
}
