package ooosim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oovec/internal/isa"
	"oovec/internal/probe"
	"oovec/internal/refsim"
	"oovec/internal/rob"
	"oovec/internal/trace"
)

func TestMaskRenamingThroughVCmpVMerge(t *testing.T) {
	// VCmp writes the mask; VMerge reads it. With 8 physical mask
	// registers, chains of compares rename without stalling on the single
	// architectural mask.
	b := trace.NewBuilder("mask")
	b.SetVL(64, isa.A(0))
	for i := 0; i < 10; i++ {
		b.Vector(isa.OpVCmp, isa.VM(), isa.V(i%8), isa.V((i+1)%8))
		b.Vector(isa.OpVMerge, isa.V((i+2)%8), isa.V(i%8), isa.V((i+1)%8))
	}
	tr := b.Build()
	res := Run(tr, cfgN(16))
	if err := res.Tables[isa.RegM].CheckInvariants(); err != nil {
		t.Error(err)
	}
	if res.Stats.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	// The merges chain on the compares: total far below full serialisation
	// (20 × (startup+VL+lat) ≈ 1560).
	if res.Stats.Cycles > 1500 {
		t.Errorf("masked chain = %d cycles; mask renaming/chaining broken", res.Stats.Cycles)
	}
}

func TestVReduceDeliversScalar(t *testing.T) {
	b := trace.NewBuilder("reduce")
	b.SetVL(64, isa.A(0))
	b.Raw(isa.Instruction{Op: isa.OpVReduce, Dst: isa.S(3), Src1: isa.V(1), VL: 64})
	b.Scalar(isa.OpSAdd, isa.S(4), isa.S(3), isa.S(0)) // consumes the reduction
	tr := b.Build()
	var addIssue int64
	cfg := cfgN(16)
	cfg.Sink = probe.InsnFunc(func(e probe.Event) {
		if e.Index == 2 {
			addIssue = e.Issue
		}
	})
	Run(tr, cfg)
	// The consumer waits for the full reduction (startup + lat + VL).
	if addIssue < 64 {
		t.Errorf("reduction consumer issued at %d, before the reduction completes", addIssue)
	}
}

func TestMaskedOpsOnRefMachine(t *testing.T) {
	b := trace.NewBuilder("maskref")
	b.SetVL(32, isa.A(0))
	b.Vector(isa.OpVCmp, isa.VM(), isa.V(0), isa.V(1))
	b.Vector(isa.OpVMerge, isa.V(4), isa.V(2), isa.V(3))
	tr := b.Build()
	st := refsim.Run(tr, refsim.DefaultConfig())
	if st.Cycles <= 0 {
		t.Fatal("REF did not execute masked ops")
	}
	// The merge reads the mask: it must start after the compare's chain
	// point, i.e. the run is longer than one instruction's span.
	single := refsim.Run(func() *trace.Trace {
		b := trace.NewBuilder("one")
		b.SetVL(32, isa.A(0))
		b.Vector(isa.OpVCmp, isa.VM(), isa.V(0), isa.V(1))
		return b.Build()
	}(), refsim.DefaultConfig())
	if st.Cycles <= single.Cycles {
		t.Error("merge did not serialise behind the mask-writing compare")
	}
}

// randomKernel builds a random but structurally valid trace mixing every
// instruction category.
func randomKernel(r *rand.Rand, n int) *trace.Trace {
	b := trace.NewBuilder("prop")
	b.SetVL(1+r.Intn(isa.MaxVL), isa.A(0))
	for i := 0; i < n; i++ {
		switch r.Intn(12) {
		case 0:
			b.SetVL(1+r.Intn(isa.MaxVL), isa.A(r.Intn(8)))
		case 1:
			b.VLoad(isa.V(r.Intn(8)), uint64(0x10000+r.Intn(1<<20)))
		case 2:
			b.VStore(isa.V(r.Intn(8)), uint64(0x10000+r.Intn(1<<20)))
		case 3:
			b.Vector(isa.OpVAdd, isa.V(r.Intn(8)), isa.V(r.Intn(8)), isa.V(r.Intn(8)))
		case 4:
			b.Vector(isa.OpVMul, isa.V(r.Intn(8)), isa.V(r.Intn(8)), isa.V(r.Intn(8)))
		case 5:
			b.Vector(isa.OpVDiv, isa.V(r.Intn(8)), isa.V(r.Intn(8)), isa.V(r.Intn(8)))
		case 6:
			b.Scalar(isa.OpAAdd, isa.A(r.Intn(8)), isa.A(r.Intn(8)), isa.A(r.Intn(8)))
		case 7:
			b.ScalarLoad(isa.OpSLoad, isa.S(r.Intn(8)), uint64(r.Intn(1<<16)))
		case 8:
			b.Branch(uint64(0x100+r.Intn(64)*4), r.Intn(2) == 0)
		case 9:
			b.SpillStore(isa.V(r.Intn(8)), uint64(0x900000+r.Intn(16)*0x400))
		case 10:
			b.SpillLoad(isa.V(r.Intn(8)), uint64(0x900000+r.Intn(16)*0x400))
		case 11:
			b.Vector(isa.OpVCmp, isa.VM(), isa.V(r.Intn(8)), isa.V(r.Intn(8)))
			b.Vector(isa.OpVMerge, isa.V(r.Intn(8)), isa.V(r.Intn(8)), isa.V(r.Intn(8)))
		}
	}
	return b.Build()
}

// randomConfig draws a structurally valid OOOVA configuration.
func randomConfig(r *rand.Rand) Config {
	cfg := DefaultConfig()
	cfg.PhysVRegs = 9 + r.Intn(56)
	cfg.QueueSlots = []int{8, 16, 32, 128}[r.Intn(4)]
	cfg.ROBSize = []int{16, 64, 128}[r.Intn(3)]
	cfg.MemLatency = int64(1 + r.Intn(100))
	if r.Intn(2) == 0 {
		cfg.Commit = rob.PolicyLate
	}
	cfg.LoadElim = ElimMode(r.Intn(3))
	return cfg
}

func TestPropertyRandomTracesRandomConfigs(t *testing.T) {
	// Sanity across the configuration space: simulation terminates, state
	// accounting is exact, rename invariants hold, results deterministic.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomKernel(r, 150+r.Intn(300))
		cfg := randomConfig(r)
		res1 := Run(tr, cfg)
		res2 := Run(tr, cfg)
		st := res1.Stats
		if st.Cycles <= 0 {
			t.Logf("seed %d: no cycles", seed)
			return false
		}
		if st.States.Total() != st.Cycles {
			t.Logf("seed %d: state accounting %d != %d", seed, st.States.Total(), st.Cycles)
			return false
		}
		if st.States.MemIdleCycles()+st.MemPortBusy != st.Cycles {
			t.Logf("seed %d: port accounting broken", seed)
			return false
		}
		if st.Cycles != res2.Stats.Cycles || st.MemRequests != res2.Stats.MemRequests {
			t.Logf("seed %d: nondeterministic", seed)
			return false
		}
		for class, tb := range res1.Tables {
			if err := tb.CheckInvariants(); err != nil {
				t.Logf("seed %d: %v invariants: %v", seed, class, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRefRandomTraces(t *testing.T) {
	// The reference machine on the same random traces: terminates,
	// accounts exactly, deterministic, and never beats the bus bound.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomKernel(r, 150+r.Intn(300))
		cfg := refsim.DefaultConfig()
		cfg.MemLatency = int64(1 + r.Intn(100))
		a := refsim.Run(tr, cfg)
		c := refsim.Run(tr, cfg)
		if a.Cycles != c.Cycles {
			return false
		}
		if a.States.Total() != a.Cycles {
			return false
		}
		return a.Cycles >= a.MemPortBusy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOOONeverBeatsBusBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomKernel(r, 200)
		st := Run(tr, randomConfig(r)).Stats
		return st.Cycles >= st.MemPortBusy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
