// Package isa defines the vector instruction set architecture used by both
// the reference (in-order Convex C3400-class) simulator and the out-of-order
// OOOVA simulator from "Out-of-Order Vector Architectures" (Espasa, Valero,
// Smith; MICRO-30 1997).
//
// The ISA is a register-register vector architecture in the Cray/Convex
// tradition:
//
//   - A registers: scalar address/integer registers (8 logical).
//   - S registers: scalar data registers (8 logical).
//   - V registers: vector registers of up to MaxVL 64-bit elements (8 logical).
//   - The VM register: a single logical vector mask register.
//
// Vector instructions operate under the current vector length (VL) and, for
// strided memory accesses, the current vector stride (VS). In this trace
// representation every dynamic instruction carries its effective VL and VS,
// exactly as the Dixie-derived traces of the paper did.
package isa

import "fmt"

// MaxVL is the architectural maximum vector length: 128 elements of 64 bits,
// matching the Convex C3400 vector registers described in the paper.
const MaxVL = 128

// ElemBytes is the size of one vector element in bytes.
const ElemBytes = 8

// Architectural (logical) register-file sizes.
const (
	NumLogicalA = 8
	NumLogicalS = 8
	NumLogicalV = 8
	NumLogicalM = 1 // single architected vector-mask register
)

// RegClass identifies one of the four architectural register files.
type RegClass uint8

const (
	// RegNone marks an absent operand.
	RegNone RegClass = iota
	// RegA is the scalar address/integer register file.
	RegA
	// RegS is the scalar data register file.
	RegS
	// RegV is the vector register file.
	RegV
	// RegM is the vector-mask register file.
	RegM
)

// NumRegClasses is the number of RegClass values (RegNone included); it
// sizes class-indexed lookup arrays on the simulator hot path.
const NumRegClasses = int(RegM) + 1

// String returns the conventional one-letter name of the class.
func (c RegClass) String() string {
	switch c {
	case RegNone:
		return "-"
	case RegA:
		return "a"
	case RegS:
		return "s"
	case RegV:
		return "v"
	case RegM:
		return "vm"
	}
	return fmt.Sprintf("RegClass(%d)", uint8(c))
}

// NumLogical returns the number of architectural registers in the class.
func (c RegClass) NumLogical() int {
	switch c {
	case RegA:
		return NumLogicalA
	case RegS:
		return NumLogicalS
	case RegV:
		return NumLogicalV
	case RegM:
		return NumLogicalM
	}
	return 0
}

// Reg names one architectural register: a class and an index within it.
// The zero value is "no register".
type Reg struct {
	Class RegClass
	Idx   uint8
}

// NoReg is the absent-operand register value.
var NoReg = Reg{}

// Valid reports whether r names an actual register (class set, index in range).
func (r Reg) Valid() bool {
	return r.Class != RegNone && int(r.Idx) < r.Class.NumLogical()
}

// String renders the register in assembly style, e.g. "v3" or "a0".
func (r Reg) String() string {
	if r.Class == RegNone {
		return "-"
	}
	if r.Class == RegM {
		return "vm"
	}
	return fmt.Sprintf("%s%d", r.Class, r.Idx)
}

// A returns the n-th A register.
func A(n int) Reg { return Reg{RegA, uint8(n)} }

// S returns the n-th S register.
func S(n int) Reg { return Reg{RegS, uint8(n)} }

// V returns the n-th V register.
func V(n int) Reg { return Reg{RegV, uint8(n)} }

// VM returns the vector mask register.
func VM() Reg { return Reg{RegM, 0} }

// Op enumerates the dynamic operations recognised by the simulators.
type Op uint8

const (
	// OpNop does nothing; it occupies a decode slot only.
	OpNop Op = iota

	// ---- Scalar A-unit operations (address arithmetic) ----

	// OpAAdd is scalar integer add/subtract on A registers.
	OpAAdd
	// OpAMul is scalar integer multiply on A registers.
	OpAMul
	// OpAMove copies between A registers (also A<->S moves).
	OpAMove
	// OpALoad loads one word from memory into an A register.
	OpALoad
	// OpAStore stores one A register word to memory.
	OpAStore

	// ---- Scalar S-unit operations (floating point / logical) ----

	// OpSAdd is scalar FP add/subtract.
	OpSAdd
	// OpSMul is scalar FP multiply.
	OpSMul
	// OpSDiv is scalar FP divide.
	OpSDiv
	// OpSSqrt is scalar FP square root.
	OpSSqrt
	// OpSLogic is scalar logical (and/or/xor) operation.
	OpSLogic
	// OpSShift is scalar shift.
	OpSShift
	// OpSMove copies between S registers.
	OpSMove
	// OpSLoad loads one word from memory into an S register.
	OpSLoad
	// OpSStore stores one S register word to memory.
	OpSStore

	// ---- Control flow ----

	// OpBranch is a conditional branch (direction carried by the trace).
	OpBranch
	// OpJump is an unconditional jump.
	OpJump
	// OpCall is a subroutine call (pushes the return stack).
	OpCall
	// OpReturn is a subroutine return (pops the return stack).
	OpReturn

	// ---- Vector state setup ----

	// OpSetVL writes the vector-length register from an A register.
	OpSetVL
	// OpSetVS writes the vector-stride register from an A register.
	OpSetVS

	// ---- Vector computation ----

	// OpVAdd is vector FP add/subtract (FU1 or FU2).
	OpVAdd
	// OpVMul is vector FP multiply (FU2 only).
	OpVMul
	// OpVDiv is vector FP divide (FU2 only).
	OpVDiv
	// OpVSqrt is vector FP square root (FU2 only).
	OpVSqrt
	// OpVLogic is vector logical operation (FU1 or FU2).
	OpVLogic
	// OpVShift is vector shift (FU1 or FU2).
	OpVShift
	// OpVCmp is vector compare; writes the mask register (FU1 or FU2).
	OpVCmp
	// OpVMerge is vector merge under mask (FU1 or FU2).
	OpVMerge
	// OpVSMul is vector-scalar multiply: V op S -> V (FU2 only).
	OpVSMul
	// OpVSAdd is vector-scalar add: V op S -> V (FU1 or FU2).
	OpVSAdd
	// OpVReduce is a reduction (sum/max) producing an S register (FU1 or FU2).
	OpVReduce

	// ---- Vector memory ----

	// OpVLoad is a unit- or constant-strided vector load.
	OpVLoad
	// OpVStore is a unit- or constant-strided vector store.
	OpVStore
	// OpVGather is an indexed vector load.
	OpVGather
	// OpVScatter is an indexed vector store.
	OpVScatter

	numOps // sentinel; keep last
)

// NumOps is the number of defined operations.
const NumOps = int(numOps)

// Unit identifies which machine resource executes an operation.
type Unit uint8

const (
	// UnitNone is used by OpNop.
	UnitNone Unit = iota
	// UnitA is the scalar address unit.
	UnitA
	// UnitS is the scalar data unit.
	UnitS
	// UnitCtl is the branch/control unit (resolved in the scalar pipeline).
	UnitCtl
	// UnitV is a vector functional unit (FU1 or FU2).
	UnitV
	// UnitMem is the memory access unit (scalar and vector references).
	UnitMem
)

// String names the unit.
func (u Unit) String() string {
	switch u {
	case UnitNone:
		return "none"
	case UnitA:
		return "A"
	case UnitS:
		return "S"
	case UnitCtl:
		return "CTL"
	case UnitV:
		return "V"
	case UnitMem:
		return "MEM"
	}
	return fmt.Sprintf("Unit(%d)", uint8(u))
}

// ExecUnit returns the machine unit that executes op.
func (o Op) ExecUnit() Unit {
	switch o {
	case OpNop:
		return UnitNone
	case OpAAdd, OpAMul, OpAMove, OpSetVL, OpSetVS:
		return UnitA
	case OpSAdd, OpSMul, OpSDiv, OpSSqrt, OpSLogic, OpSShift, OpSMove:
		return UnitS
	case OpBranch, OpJump, OpCall, OpReturn:
		return UnitCtl
	case OpVAdd, OpVMul, OpVDiv, OpVSqrt, OpVLogic, OpVShift, OpVCmp,
		OpVMerge, OpVSMul, OpVSAdd, OpVReduce:
		return UnitV
	case OpALoad, OpAStore, OpSLoad, OpSStore,
		OpVLoad, OpVStore, OpVGather, OpVScatter:
		return UnitMem
	}
	return UnitNone
}

// IsVector reports whether op is a vector operation (computation or memory),
// i.e. whether it reads or writes V registers and executes under VL.
func (o Op) IsVector() bool {
	switch o {
	case OpVAdd, OpVMul, OpVDiv, OpVSqrt, OpVLogic, OpVShift, OpVCmp,
		OpVMerge, OpVSMul, OpVSAdd, OpVReduce,
		OpVLoad, OpVStore, OpVGather, OpVScatter:
		return true
	}
	return false
}

// IsMem reports whether op accesses memory.
func (o Op) IsMem() bool {
	switch o {
	case OpALoad, OpAStore, OpSLoad, OpSStore,
		OpVLoad, OpVStore, OpVGather, OpVScatter:
		return true
	}
	return false
}

// IsLoad reports whether op reads memory.
func (o Op) IsLoad() bool {
	switch o {
	case OpALoad, OpSLoad, OpVLoad, OpVGather:
		return true
	}
	return false
}

// IsStore reports whether op writes memory.
func (o Op) IsStore() bool {
	switch o {
	case OpAStore, OpSStore, OpVStore, OpVScatter:
		return true
	}
	return false
}

// IsBranch reports whether op is a control-transfer instruction.
func (o Op) IsBranch() bool {
	switch o {
	case OpBranch, OpJump, OpCall, OpReturn:
		return true
	}
	return false
}

// NeedsFU2 reports whether a vector computation can only execute on FU2.
// Per the paper, FU1 executes all vector instructions except multiplication,
// division and square root.
func (o Op) NeedsFU2() bool {
	switch o {
	case OpVMul, OpVDiv, OpVSqrt, OpVSMul:
		return true
	}
	return false
}

// Instruction is one dynamic instruction from a trace. Fields that do not
// apply to the opcode are left at their zero values.
type Instruction struct {
	// PC is the (synthetic) program counter; used for branch prediction.
	PC uint64
	// Op is the operation.
	Op Op
	// Dst is the destination register (NoReg if none).
	Dst Reg
	// Src1, Src2 are source registers (NoReg if absent).
	Src1, Src2 Reg
	// VL is the effective vector length for vector operations (1..MaxVL).
	VL uint16
	// VS is the stride in bytes between consecutive elements of a vector
	// memory access. Unit stride is ElemBytes.
	VS int32
	// Addr is the base effective address for memory operations, or the
	// branch target for control transfers.
	Addr uint64
	// Taken is the branch outcome recorded in the trace.
	Taken bool
	// Spill marks memory operations that the compiler generated to spill or
	// refill a register (used by the Table 3 accounting and §6 experiments).
	Spill bool
}

// EffVL returns the vector length the instruction executes under: VL for
// vector instructions (minimum 1), 1 for scalar ones.
func (in *Instruction) EffVL() int {
	if in.Op.IsVector() {
		if in.VL == 0 {
			return 1
		}
		return int(in.VL)
	}
	return 1
}

// MemRange returns the inclusive byte range [start, end] potentially touched
// by a memory instruction, as computed by the Range stage of the paper's
// memory pipeline: start = base, end = base + (VL-1)*VS + (ElemBytes-1).
// Negative strides produce start < base; the returned range is normalised so
// start <= end. Gather/scatter instructions return a conservatively large
// range (the paper's hardware also disambiguates them conservatively).
func (in *Instruction) MemRange() (start, end uint64) {
	if !in.Op.IsMem() {
		return 0, 0
	}
	if in.Op == OpVGather || in.Op == OpVScatter {
		// Conservative: indexed accesses may touch a wide region around the
		// base. Use base +/- MaxVL*MaxVL bytes as the hardware's pessimistic
		// assumption.
		const slop = uint64(MaxVL * MaxVL)
		s := in.Addr
		if s > slop {
			s -= slop
		} else {
			s = 0
		}
		return s, in.Addr + slop
	}
	n := int64(in.EffVL())
	stride := int64(in.VS)
	if !in.Op.IsVector() || stride == 0 {
		stride = ElemBytes
	}
	last := int64(in.Addr) + (n-1)*stride
	first := int64(in.Addr)
	if last < first {
		first, last = last, first
	}
	if first < 0 {
		first = 0
	}
	return uint64(first), uint64(last) + ElemBytes - 1
}

// Reads returns the registers read by the instruction (excluding NoReg).
// The result slice aliases a fixed-size backing array; callers must not
// retain it across calls.
func (in *Instruction) Reads(buf []Reg) []Reg {
	buf = buf[:0]
	if in.Src1.Class != RegNone {
		buf = append(buf, in.Src1)
	}
	if in.Src2.Class != RegNone {
		buf = append(buf, in.Src2)
	}
	// Stores read the register being stored (held in Dst by convention? no:
	// stores carry their data register in Src1). Merge reads the mask.
	if in.Op == OpVMerge {
		buf = append(buf, VM())
	}
	return buf
}

// WritesReg reports whether the instruction defines Dst.
func (in *Instruction) WritesReg() bool {
	if in.Dst.Class == RegNone {
		return false
	}
	return !in.Op.IsStore() && !in.Op.IsBranch()
}

// Validate checks structural well-formedness of the instruction and returns
// a descriptive error for malformed ones. The trace reader and builder call
// this so that simulator internals can assume valid instructions.
func (in *Instruction) Validate() error {
	if int(in.Op) >= NumOps {
		return fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if in.Op.IsVector() {
		if in.VL == 0 || in.VL > MaxVL {
			return fmt.Errorf("isa: %s has VL=%d outside [1,%d]", in.Op, in.VL, MaxVL)
		}
	}
	for _, r := range []Reg{in.Dst, in.Src1, in.Src2} {
		if r.Class != RegNone && !r.Valid() {
			return fmt.Errorf("isa: %s has out-of-range register %s%d", in.Op, r.Class, r.Idx)
		}
	}
	if in.Op.IsMem() && in.Op.IsVector() && in.VS == 0 {
		return fmt.Errorf("isa: vector memory op %s has zero stride", in.Op)
	}
	if in.Spill && !in.Op.IsMem() {
		return fmt.Errorf("isa: non-memory op %s marked as spill", in.Op)
	}
	return nil
}
