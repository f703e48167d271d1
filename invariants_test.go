package oovec

// Cross-machine invariants: metamorphic properties that must hold across
// the configuration space, checked on reduced-size versions of the paper's
// benchmarks. These complement the per-module unit tests by pinning the
// relationships the experiments depend on.

import (
	"testing"

	"oovec/internal/tgen"
)

// invTrace returns a reduced-size benchmark trace.
func invTrace(t *testing.T, name string, insns int) *Trace {
	t.Helper()
	p, ok := tgen.PresetByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	p.Insns = insns
	return tgen.Generate(p)
}

// invBenchmarks is a representative subset: long vectors, short vectors
// with a recurrence, spill-heavy huge blocks, scalar-heavy.
var invBenchmarks = []string{"swm256", "trfd", "bdna", "tomcatv"}

func TestInvariantIdealBoundsEverything(t *testing.T) {
	for _, name := range invBenchmarks {
		tr := invTrace(t, name, 6000)
		ideal := IdealCycles(tr)
		ref := RunReference(tr, DefaultReferenceConfig())
		if ref.Cycles < ideal {
			t.Errorf("%s: REF %d below IDEAL %d", name, ref.Cycles, ideal)
		}
		for _, regs := range []int{9, 16, 64} {
			cfg := DefaultOOOVAConfig()
			cfg.PhysVRegs = regs
			ooo := RunOOOVA(tr, cfg).Stats
			if ooo.Cycles < ideal {
				t.Errorf("%s/%d regs: OOOVA %d below IDEAL %d", name, regs, ooo.Cycles, ideal)
			}
		}
	}
}

func TestInvariantOOOVANeverSlowerThanRef(t *testing.T) {
	// Not a theorem in general, but it must hold on every benchmark at the
	// paper's configurations — it is the paper's headline.
	for _, name := range invBenchmarks {
		tr := invTrace(t, name, 6000)
		ref := RunReference(tr, DefaultReferenceConfig())
		ooo := RunOOOVA(tr, DefaultOOOVAConfig()).Stats
		if ooo.Cycles > ref.Cycles {
			t.Errorf("%s: OOOVA %d slower than REF %d", name, ooo.Cycles, ref.Cycles)
		}
	}
}

func TestInvariantTrafficIdenticalAcrossMachines(t *testing.T) {
	// Without load elimination, both machines move exactly the same
	// elements over the address bus: traffic is a program property.
	for _, name := range invBenchmarks {
		tr := invTrace(t, name, 6000)
		ref := RunReference(tr, DefaultReferenceConfig())
		ooo := RunOOOVA(tr, DefaultOOOVAConfig()).Stats
		if ref.MemRequests != ooo.MemRequests {
			t.Errorf("%s: traffic differs REF %d vs OOOVA %d",
				name, ref.MemRequests, ooo.MemRequests)
		}
	}
}

func TestInvariantLatencyMonotonicity(t *testing.T) {
	// Execution time never decreases when memory slows down.
	for _, name := range invBenchmarks {
		tr := invTrace(t, name, 6000)
		var prevRef, prevOOO int64
		for _, lat := range []int64{1, 20, 50, 100} {
			refCfg := DefaultReferenceConfig()
			refCfg.MemLatency = lat
			ref := RunReference(tr, refCfg)
			oooCfg := DefaultOOOVAConfig()
			oooCfg.MemLatency = lat
			ooo := RunOOOVA(tr, oooCfg).Stats
			if ref.Cycles < prevRef {
				t.Errorf("%s: REF cycles decreased at latency %d", name, lat)
			}
			if ooo.Cycles < prevOOO {
				t.Errorf("%s: OOOVA cycles decreased at latency %d", name, lat)
			}
			prevRef, prevOOO = ref.Cycles, ooo.Cycles
		}
	}
}

func TestInvariantRegisterMonotonicity(t *testing.T) {
	// More physical registers never hurt (small slack for bus-packing
	// noise from different placement orders).
	for _, name := range invBenchmarks {
		tr := invTrace(t, name, 6000)
		var prev int64 = 1 << 62
		for _, regs := range []int{9, 12, 16, 32, 64} {
			cfg := DefaultOOOVAConfig()
			cfg.PhysVRegs = regs
			c := RunOOOVA(tr, cfg).Stats.Cycles
			if float64(c) > 1.01*float64(prev) {
				t.Errorf("%s: %d regs (%d cycles) slower than fewer regs (%d)",
					name, regs, c, prev)
			}
			if c < prev {
				prev = c
			}
		}
	}
}

func TestInvariantLateNeverFasterThanEarly(t *testing.T) {
	for _, name := range invBenchmarks {
		tr := invTrace(t, name, 6000)
		early := DefaultOOOVAConfig()
		late := early
		late.Commit = CommitLate
		ce := RunOOOVA(tr, early).Stats.Cycles
		cl := RunOOOVA(tr, late).Stats.Cycles
		if float64(cl) < 0.995*float64(ce) {
			t.Errorf("%s: late commit (%d) beat early commit (%d)", name, cl, ce)
		}
	}
}

func TestInvariantEliminationNeverAddsTraffic(t *testing.T) {
	for _, name := range invBenchmarks {
		tr := invTrace(t, name, 6000)
		base := DefaultOOOVAConfig()
		base.PhysVRegs = 32
		base.Commit = CommitLate
		baseRun := RunOOOVA(tr, base).Stats
		for _, mode := range []ElimMode{ElimSLE, ElimSLEVLE} {
			cfg := base
			cfg.LoadElim = mode
			run := RunOOOVA(tr, cfg).Stats
			if run.MemRequests > baseRun.MemRequests {
				t.Errorf("%s/%v: elimination increased traffic %d > %d",
					name, mode, run.MemRequests, baseRun.MemRequests)
			}
			if run.MemRequests+run.EliminatedRequests != baseRun.MemRequests {
				t.Errorf("%s/%v: traffic accounting broken: %d + %d != %d",
					name, mode, run.MemRequests, run.EliminatedRequests, baseRun.MemRequests)
			}
		}
	}
}

func TestInvariantStateAccountingExact(t *testing.T) {
	for _, name := range invBenchmarks {
		tr := invTrace(t, name, 6000)
		ref := RunReference(tr, DefaultReferenceConfig())
		ooo := RunOOOVA(tr, DefaultOOOVAConfig()).Stats
		for _, st := range []*RunStats{ref, ooo} {
			if st.States.Total() != st.Cycles {
				t.Errorf("%s/%s: state breakdown %d != cycles %d",
					name, st.Machine, st.States.Total(), st.Cycles)
			}
			if st.States.MemIdleCycles()+st.MemPortBusy != st.Cycles {
				t.Errorf("%s/%s: port accounting inconsistent", name, st.Machine)
			}
		}
	}
}

func TestInvariantQueueDepthNeverHurtsMuch(t *testing.T) {
	for _, name := range invBenchmarks {
		tr := invTrace(t, name, 6000)
		c16 := RunOOOVA(tr, DefaultOOOVAConfig()).Stats.Cycles
		cfg := DefaultOOOVAConfig()
		cfg.QueueSlots = 128
		c128 := RunOOOVA(tr, cfg).Stats.Cycles
		if float64(c128) > 1.01*float64(c16) {
			t.Errorf("%s: queue 128 (%d) slower than queue 16 (%d)", name, c128, c16)
		}
	}
}
