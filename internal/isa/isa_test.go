package isa

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegClassNumLogical(t *testing.T) {
	cases := []struct {
		c RegClass
		n int
	}{
		{RegA, 8}, {RegS, 8}, {RegV, 8}, {RegM, 1}, {RegNone, 0},
	}
	for _, c := range cases {
		if got := c.c.NumLogical(); got != c.n {
			t.Errorf("%v.NumLogical() = %d, want %d", c.c, got, c.n)
		}
	}
}

func TestRegConstructorsAndValidity(t *testing.T) {
	if !A(0).Valid() || !A(7).Valid() {
		t.Error("A(0)/A(7) should be valid")
	}
	if A(8).Valid() {
		t.Error("A(8) should be out of range")
	}
	if !S(3).Valid() || !V(7).Valid() || !VM().Valid() {
		t.Error("S(3), V(7), VM() should be valid")
	}
	if V(8).Valid() {
		t.Error("V(8) should be out of range")
	}
	if NoReg.Valid() {
		t.Error("NoReg should be invalid")
	}
}

func TestRegString(t *testing.T) {
	cases := map[string]Reg{
		"a0": A(0), "s5": S(5), "v7": V(7), "vm": VM(), "-": NoReg,
	}
	for want, r := range cases {
		if got := r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestExecUnitCoversAllOps(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		u := op.ExecUnit()
		if op == OpNop {
			if u != UnitNone {
				t.Errorf("nop unit = %v", u)
			}
			continue
		}
		if u == UnitNone {
			t.Errorf("op %v has no execution unit", op)
		}
	}
}

func TestOpClassPredicatesAreConsistent(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if op.IsLoad() && op.IsStore() {
			t.Errorf("%v claims to be both load and store", op)
		}
		if (op.IsLoad() || op.IsStore()) != op.IsMem() {
			t.Errorf("%v mem/load/store predicates disagree", op)
		}
		if op.IsMem() && op.ExecUnit() != UnitMem {
			t.Errorf("%v is mem but unit=%v", op, op.ExecUnit())
		}
		if op.IsBranch() && op.ExecUnit() != UnitCtl {
			t.Errorf("%v is branch but unit=%v", op, op.ExecUnit())
		}
		if op.NeedsFU2() && !op.IsVector() {
			t.Errorf("%v needs FU2 but is not vector", op)
		}
	}
}

func TestFU1Restriction(t *testing.T) {
	// Per the paper: FU1 executes all vector instructions except
	// multiplication, division and square root.
	fu2Only := map[Op]bool{OpVMul: true, OpVDiv: true, OpVSqrt: true, OpVSMul: true}
	for op := Op(0); int(op) < NumOps; op++ {
		if !op.IsVector() || op.ExecUnit() != UnitV {
			continue
		}
		if got := op.NeedsFU2(); got != fu2Only[op] {
			t.Errorf("%v.NeedsFU2() = %v, want %v", op, got, fu2Only[op])
		}
	}
}

func TestExecLatencyPositiveForNonMem(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		lat := ExecLatency(op)
		if op.IsMem() {
			if lat != 0 {
				t.Errorf("%v: memory latency must come from the memory model, got %d", op, lat)
			}
			continue
		}
		if lat <= 0 {
			t.Errorf("%v: non-positive latency %d", op, lat)
		}
	}
}

func TestLatencyOrdering(t *testing.T) {
	// div/sqrt > mul > add, in both scalar and vector flavours.
	if !(ExecLatency(OpSDiv) > ExecLatency(OpSMul) && ExecLatency(OpSMul) > ExecLatency(OpSAdd)) {
		t.Error("scalar latency ordering violated")
	}
	if !(ExecLatency(OpVDiv) > ExecLatency(OpVMul) && ExecLatency(OpVMul) > ExecLatency(OpVAdd)) {
		t.Error("vector latency ordering violated")
	}
}

func TestXbarLatenciesMatchTable1(t *testing.T) {
	if ReadXbar(MachineRef) != 1 || ReadXbar(MachineOOO) != 0 {
		t.Errorf("read crossbar: ref=%d ooo=%d, want 1/0", ReadXbar(MachineRef), ReadXbar(MachineOOO))
	}
	if WriteXbar(MachineRef) != 1 || WriteXbar(MachineOOO) != 2 {
		t.Errorf("write crossbar: ref=%d ooo=%d, want 1/2", WriteXbar(MachineRef), WriteXbar(MachineOOO))
	}
}

func TestEffVL(t *testing.T) {
	in := &Instruction{Op: OpVAdd, VL: 17}
	if in.EffVL() != 17 {
		t.Errorf("EffVL = %d, want 17", in.EffVL())
	}
	in = &Instruction{Op: OpSAdd, VL: 99} // VL ignored on scalar ops
	if in.EffVL() != 1 {
		t.Errorf("scalar EffVL = %d, want 1", in.EffVL())
	}
	in = &Instruction{Op: OpVAdd, VL: 0} // degenerate; clamp to 1
	if in.EffVL() != 1 {
		t.Errorf("zero-VL EffVL = %d, want 1", in.EffVL())
	}
}

func TestMemRangeUnitStride(t *testing.T) {
	in := &Instruction{Op: OpVLoad, Dst: V(0), Addr: 0x1000, VL: 4, VS: 8}
	s, e := in.MemRange()
	if s != 0x1000 || e != 0x1000+3*8+7 {
		t.Errorf("unit-stride range = [%#x,%#x]", s, e)
	}
}

func TestMemRangeStrided(t *testing.T) {
	in := &Instruction{Op: OpVLoad, Dst: V(0), Addr: 0x1000, VL: 4, VS: 32}
	s, e := in.MemRange()
	if s != 0x1000 || e != 0x1000+3*32+7 {
		t.Errorf("strided range = [%#x,%#x]", s, e)
	}
}

func TestMemRangeNegativeStride(t *testing.T) {
	in := &Instruction{Op: OpVLoad, Dst: V(0), Addr: 0x1000, VL: 4, VS: -16}
	s, e := in.MemRange()
	if s != 0x1000-3*16 || e != 0x1000+7 {
		t.Errorf("negative-stride range = [%#x,%#x]", s, e)
	}
	if s > e {
		t.Error("range not normalised")
	}
}

func TestMemRangeScalar(t *testing.T) {
	in := &Instruction{Op: OpSLoad, Dst: S(0), Addr: 0x2000}
	s, e := in.MemRange()
	if s != 0x2000 || e != 0x2007 {
		t.Errorf("scalar range = [%#x,%#x]", s, e)
	}
}

func TestMemRangeGatherConservative(t *testing.T) {
	in := &Instruction{Op: OpVGather, Dst: V(0), Src1: V(1), Addr: 0x100000, VL: 8, VS: 8}
	s, e := in.MemRange()
	if s >= in.Addr || e <= in.Addr {
		t.Errorf("gather range [%#x,%#x] should bracket the base address", s, e)
	}
}

// TestMemRangeSaturatesAtAddressSpaceEnds checks ranges that reach past
// either end of the 64-bit address space: they saturate at 0 and at the
// top address instead of wrapping or clamping an int64 result, so they
// never overlap a range at the other end.
func TestMemRangeSaturatesAtAddressSpaceEnds(t *testing.T) {
	const top = math.MaxUint64
	slop := uint64(MaxVL * MaxVL)
	cases := []struct {
		name       string
		in         Instruction
		start, end uint64
	}{
		{"scalar load at the top", Instruction{Op: OpSLoad, Dst: S(0), Addr: 0xfffffffffffffffd}, 0xfffffffffffffffd, top},
		{"vector load at 2^63", Instruction{Op: OpVLoad, Dst: V(0), Addr: 0x8000000000000000, VL: 4, VS: 8},
			0x8000000000000000, 0x800000000000001f},
		{"scalar load just below 2^63", Instruction{Op: OpALoad, Dst: A(0), Addr: 0x7ffffffffffffffc}, 0x7ffffffffffffffc, 0x8000000000000003},
		{"vector store running off the top", Instruction{Op: OpVStore, Src1: V(0), Addr: top - 100, VL: 64, VS: 8}, top - 100, top},
		{"negative stride below 0", Instruction{Op: OpVLoad, Dst: V(0), Addr: 16, VL: 8, VS: -8}, 0, 23},
		{"negative stride from the top", Instruction{Op: OpVLoad, Dst: V(0), Addr: top - 3, VL: 2, VS: -8}, top - 11, top},
		{"gather wrapping the top", Instruction{Op: OpVGather, Dst: V(0), Src1: V(1), Addr: top - 5, VL: 8, VS: 8}, top - 5 - slop, top},
		{"scatter below 0", Instruction{Op: OpVScatter, Src1: V(0), Src2: V(1), Addr: 100, VL: 8, VS: 8}, 0, 100 + slop},
	}
	for _, c := range cases {
		if err := c.in.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s, e := c.in.MemRange(); s != c.start || e != c.end {
			t.Errorf("%s: range [%#x, %#x], want [%#x, %#x]", c.name, s, e, c.start, c.end)
		}
	}
}

func TestMemRangeNonMemIsZero(t *testing.T) {
	in := &Instruction{Op: OpVAdd, VL: 8}
	if s, e := in.MemRange(); s != 0 || e != 0 {
		t.Errorf("non-mem range = [%#x,%#x], want [0,0]", s, e)
	}
}

func TestWritesReg(t *testing.T) {
	cases := []struct {
		in   Instruction
		want bool
	}{
		{Instruction{Op: OpVAdd, Dst: V(1), VL: 8}, true},
		{Instruction{Op: OpVLoad, Dst: V(1), VL: 8, VS: 8}, true},
		{Instruction{Op: OpVStore, Src1: V(1), VL: 8, VS: 8}, false},
		{Instruction{Op: OpBranch, Addr: 4}, false},
		{Instruction{Op: OpSAdd, Dst: S(2)}, true},
	}
	for i, c := range cases {
		if got := c.in.WritesReg(); got != c.want {
			t.Errorf("case %d (%v): WritesReg = %v, want %v", i, c.in.Op, got, c.want)
		}
	}
}

func TestReads(t *testing.T) {
	var buf [4]Reg
	in := &Instruction{Op: OpVAdd, Dst: V(0), Src1: V(1), Src2: V(2), VL: 8}
	rs := in.Reads(buf[:])
	if len(rs) != 2 || rs[0] != V(1) || rs[1] != V(2) {
		t.Errorf("Reads = %v", rs)
	}
	merge := &Instruction{Op: OpVMerge, Dst: V(0), Src1: V(1), Src2: V(2), VL: 8}
	rs = merge.Reads(buf[:])
	if len(rs) != 3 || rs[2] != VM() {
		t.Errorf("merge Reads = %v, want mask appended", rs)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	good := []Instruction{
		{Op: OpVAdd, Dst: V(0), Src1: V(1), Src2: V(2), VL: 64},
		{Op: OpVLoad, Dst: V(0), Addr: 0x1000, VL: 128, VS: 8},
		{Op: OpSAdd, Dst: S(0), Src1: S(1), Src2: S(2)},
		{Op: OpBranch, Addr: 0x40, Taken: true},
		{Op: OpSLoad, Dst: S(1), Addr: 0x80, Spill: true},
	}
	for i := range good {
		if err := good[i].Validate(); err != nil {
			t.Errorf("case %d: unexpected error %v", i, err)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := []Instruction{
		{Op: Op(200)},
		{Op: OpVAdd, Dst: V(0), VL: 0},
		{Op: OpVAdd, Dst: V(0), VL: MaxVL + 1},
		{Op: OpVAdd, Dst: Reg{RegV, 9}, VL: 8},
		{Op: OpVLoad, Dst: V(0), VL: 8, VS: 0},
		{Op: OpVAdd, Dst: V(0), VL: 8, Spill: true},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestOpStringsAreUniqueAndNamed(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); int(op) < NumOps; op++ {
		s := op.String()
		if strings.HasPrefix(s, "op(") {
			t.Errorf("op %d has no mnemonic", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %v and %v share mnemonic %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestInstructionStringForms(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: OpVAdd, Dst: V(3), Src1: V(1), Src2: V(2), VL: 64},
			"v.add v3, v1, v2 (vl=64)"},
		{Instruction{Op: OpVLoad, Dst: V(2), Addr: 0x1000, VL: 64, VS: 8},
			"v.ld v2, 0x1000(vl=64,vs=8)"},
		{Instruction{Op: OpBranch, Addr: 0x40, Taken: true},
			"br 0x40 taken"},
		{Instruction{Op: OpSLoad, Dst: S(1), Addr: 0x80, Spill: true},
			"s.ld s1, 0x80 ;spill"},
	}
	for i, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("case %d: String() = %q, want %q", i, got, c.want)
		}
	}
}

// randomInstruction builds a structurally valid random instruction; it is the
// generator shared by the property-based tests here and in package trace.
func randomInstruction(r *rand.Rand) Instruction {
	ops := []Op{OpAAdd, OpSAdd, OpSMul, OpVAdd, OpVMul, OpVLoad, OpVStore,
		OpSLoad, OpSStore, OpBranch, OpSetVL, OpVCmp, OpVGather}
	op := ops[r.Intn(len(ops))]
	in := Instruction{Op: op, PC: uint64(r.Intn(1<<20)) * 4}
	pick := func(c RegClass) Reg { return Reg{c, uint8(r.Intn(c.NumLogical()))} }
	switch op.ExecUnit() {
	case UnitA:
		in.Dst, in.Src1 = pick(RegA), pick(RegA)
	case UnitS:
		in.Dst, in.Src1, in.Src2 = pick(RegS), pick(RegS), pick(RegS)
	case UnitV:
		in.Dst, in.Src1, in.Src2 = pick(RegV), pick(RegV), pick(RegV)
		in.VL = uint16(1 + r.Intn(MaxVL))
		if op == OpVCmp {
			in.Dst = VM()
		}
	case UnitCtl:
		in.Addr = uint64(r.Intn(1<<20)) * 4
		in.Taken = r.Intn(2) == 0
	case UnitMem:
		in.Addr = uint64(r.Intn(1 << 24))
		if op.IsVector() {
			in.VL = uint16(1 + r.Intn(MaxVL))
			strides := []int32{8, 8, 8, 16, 64, -8}
			in.VS = strides[r.Intn(len(strides))]
			if op.IsLoad() {
				in.Dst = pick(RegV)
			} else {
				in.Src1 = pick(RegV)
			}
			if op == OpVGather {
				in.Src2 = pick(RegV)
			}
		} else {
			if op.IsLoad() {
				in.Dst = pick(RegS)
			} else {
				in.Src1 = pick(RegS)
			}
			in.Spill = r.Intn(4) == 0
		}
	}
	return in
}

func TestPropertyRandomInstructionsValidate(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		for i := 0; i < 32; i++ {
			in := randomInstruction(rr)
			if err := in.Validate(); err != nil {
				t.Logf("invalid: %v (%v)", in, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMemRangeContainsAllElements(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 32; i++ {
			in := randomInstruction(r)
			if !in.Op.IsMem() || in.Op == OpVGather || in.Op == OpVScatter {
				continue
			}
			start, end := in.MemRange()
			n := in.EffVL()
			stride := int64(in.VS)
			if !in.Op.IsVector() {
				stride = ElemBytes
			}
			for e := 0; e < n; e++ {
				lo := int64(in.Addr) + int64(e)*stride
				hi := lo + ElemBytes - 1
				if lo < 0 {
					continue
				}
				if uint64(lo) < start || uint64(hi) > end {
					t.Logf("%v: element %d [%#x,%#x] outside [%#x,%#x]", in, e, lo, hi, start, end)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}
