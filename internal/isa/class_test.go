package isa

import "testing"

// The switch definitions the op-class table replaced, kept as the reference
// the table must reproduce.

func switchExecUnit(o Op) Unit {
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

func switchIsVector(o Op) bool {
	switch o {
	case OpVAdd, OpVMul, OpVDiv, OpVSqrt, OpVLogic, OpVShift, OpVCmp,
		OpVMerge, OpVSMul, OpVSAdd, OpVReduce,
		OpVLoad, OpVStore, OpVGather, OpVScatter:
		return true
	}
	return false
}

func switchIsMem(o Op) bool {
	switch o {
	case OpALoad, OpAStore, OpSLoad, OpSStore,
		OpVLoad, OpVStore, OpVGather, OpVScatter:
		return true
	}
	return false
}

func switchIsLoad(o Op) bool {
	switch o {
	case OpALoad, OpSLoad, OpVLoad, OpVGather:
		return true
	}
	return false
}

func switchIsStore(o Op) bool {
	switch o {
	case OpAStore, OpSStore, OpVStore, OpVScatter:
		return true
	}
	return false
}

func switchIsBranch(o Op) bool {
	switch o {
	case OpBranch, OpJump, OpCall, OpReturn:
		return true
	}
	return false
}

func switchNeedsFU2(o Op) bool {
	switch o {
	case OpVMul, OpVDiv, OpVSqrt, OpVSMul:
		return true
	}
	return false
}

// TestOpClassTableMatchesSwitches checks every Op value, the undefined ones
// included, against the switch definitions.
func TestOpClassTableMatchesSwitches(t *testing.T) {
	for v := 0; v < 256; v++ {
		o := Op(v)
		if got, want := o.ExecUnit(), switchExecUnit(o); got != want {
			t.Errorf("Op(%d).ExecUnit() = %v, want %v", v, got, want)
		}
		for _, p := range []struct {
			name      string
			got, want bool
		}{
			{"IsVector", o.IsVector(), switchIsVector(o)},
			{"IsMem", o.IsMem(), switchIsMem(o)},
			{"IsLoad", o.IsLoad(), switchIsLoad(o)},
			{"IsStore", o.IsStore(), switchIsStore(o)},
			{"IsBranch", o.IsBranch(), switchIsBranch(o)},
			{"NeedsFU2", o.NeedsFU2(), switchNeedsFU2(o)},
		} {
			if p.got != p.want {
				t.Errorf("Op(%d).%s() = %v, want %v", v, p.name, p.got, p.want)
			}
		}
	}
}
