package trace

import (
	"fmt"

	"oovec/internal/isa"
)

// Builder constructs traces programmatically. It tracks the current vector
// length and stride the way the architecture does (SetVL/SetVS instructions
// update architected state that subsequent vector instructions execute under)
// and assigns synthetic PCs.
//
// The builder is the public way to write custom kernels against the
// simulators; examples/quickstart uses it to express a DAXPY loop.
type Builder struct {
	t      Trace
	vl     int
	vs     int32
	pc     uint64
	pcStep uint64
	err    error
}

// NewBuilder returns a builder for a trace with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		t:      Trace{Name: name},
		vl:     isa.MaxVL,
		vs:     isa.ElemBytes,
		pcStep: 4,
	}
}

// Err returns the first error encountered while building, if any.
func (b *Builder) Err() error { return b.err }

// Build validates and returns the trace. It panics if any emitted
// instruction was malformed — builder misuse is a programming error.
func (b *Builder) Build() *Trace {
	if b.err != nil {
		panic("trace.Builder: " + b.err.Error())
	}
	if err := b.t.Validate(); err != nil {
		panic("trace.Builder: " + err.Error())
	}
	return &Trace{Name: b.t.Name, Suite: b.t.Suite, Insns: b.t.Insns}
}

// VL returns the current vector length.
func (b *Builder) VL() int { return b.vl }

func (b *Builder) emit(in isa.Instruction) *Builder {
	if b.err != nil {
		return b
	}
	in.PC = b.pc
	b.pc += b.pcStep
	if err := in.Validate(); err != nil && b.err == nil {
		b.err = fmt.Errorf("insn %d: %w", len(b.t.Insns), err)
	}
	b.t.Insns = append(b.t.Insns, in)
	return b
}

// SetPC sets the synthetic PC of the next instruction; useful for making
// loop back-edges reuse the same branch PC so the BTB can learn them.
func (b *Builder) SetPC(pc uint64) *Builder {
	b.pc = pc
	return b
}

// PC returns the PC the next emitted instruction will carry.
func (b *Builder) PC() uint64 { return b.pc }

// SetVL emits a setvl instruction and updates the builder's vector length.
func (b *Builder) SetVL(n int, src isa.Reg) *Builder {
	if n < 1 {
		n = 1
	}
	if n > isa.MaxVL {
		n = isa.MaxVL
	}
	b.vl = n
	return b.emit(isa.Instruction{Op: isa.OpSetVL, Src1: src})
}

// SetVS emits a setvs instruction and updates the builder's vector stride.
func (b *Builder) SetVS(bytes int32, src isa.Reg) *Builder {
	if bytes == 0 {
		bytes = isa.ElemBytes
	}
	b.vs = bytes
	return b.emit(isa.Instruction{Op: isa.OpSetVS, Src1: src})
}

// Scalar emits a scalar ALU operation.
func (b *Builder) Scalar(op isa.Op, dst, src1, src2 isa.Reg) *Builder {
	return b.emit(isa.Instruction{Op: op, Dst: dst, Src1: src1, Src2: src2})
}

// ScalarLoad emits a scalar load from addr.
func (b *Builder) ScalarLoad(op isa.Op, dst isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: op, Dst: dst, Addr: addr})
}

// ScalarStore emits a scalar store of src to addr.
func (b *Builder) ScalarStore(op isa.Op, src isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: op, Src1: src, Addr: addr})
}

// Vector emits a vector computation under the current VL.
func (b *Builder) Vector(op isa.Op, dst, src1, src2 isa.Reg) *Builder {
	return b.emit(isa.Instruction{Op: op, Dst: dst, Src1: src1, Src2: src2, VL: uint16(b.vl)})
}

// VLoad emits a vector load into dst from addr under the current VL/VS.
func (b *Builder) VLoad(dst isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpVLoad, Dst: dst, Addr: addr,
		VL: uint16(b.vl), VS: b.vs})
}

// VStore emits a vector store of src to addr under the current VL/VS.
func (b *Builder) VStore(src isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpVStore, Src1: src, Addr: addr,
		VL: uint16(b.vl), VS: b.vs})
}

// SpillStore emits a vector store marked as spill code.
func (b *Builder) SpillStore(src isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpVStore, Src1: src, Addr: addr,
		VL: uint16(b.vl), VS: b.vs, Spill: true})
}

// SpillLoad emits a vector load marked as spill code (a refill).
func (b *Builder) SpillLoad(dst isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpVLoad, Dst: dst, Addr: addr,
		VL: uint16(b.vl), VS: b.vs, Spill: true})
}

// ScalarSpillStore emits a scalar store marked as spill code.
func (b *Builder) ScalarSpillStore(src isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpSStore, Src1: src, Addr: addr, Spill: true})
}

// ScalarSpillLoad emits a scalar load marked as spill code.
func (b *Builder) ScalarSpillLoad(dst isa.Reg, addr uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpSLoad, Dst: dst, Addr: addr, Spill: true})
}

// Gather emits an indexed vector load (index register in src2).
func (b *Builder) Gather(dst, index isa.Reg, base uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpVGather, Dst: dst, Src2: index,
		Addr: base, VL: uint16(b.vl), VS: isa.ElemBytes})
}

// Scatter emits an indexed vector store (index register in src2).
func (b *Builder) Scatter(src, index isa.Reg, base uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpVScatter, Src1: src, Src2: index,
		Addr: base, VL: uint16(b.vl), VS: isa.ElemBytes})
}

// Branch emits a conditional branch with the given trace outcome.
func (b *Builder) Branch(target uint64, taken bool) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpBranch, Addr: target, Taken: taken})
}

// Call emits a subroutine call.
func (b *Builder) Call(target uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpCall, Addr: target, Taken: true})
}

// Return emits a subroutine return.
func (b *Builder) Return(target uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpReturn, Addr: target, Taken: true})
}

// Raw appends an arbitrary (pre-validated) instruction.
func (b *Builder) Raw(in isa.Instruction) *Builder { return b.emit(in) }
