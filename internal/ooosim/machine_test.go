package ooosim

import (
	"testing"

	"oovec/internal/isa"
	"oovec/internal/probe"
	"oovec/internal/refsim"
	"oovec/internal/rob"
	"oovec/internal/trace"
)

func cfgN(vregs int) Config {
	c := DefaultConfig()
	c.PhysVRegs = vregs
	return c
}

// independentLoads builds a trace of n independent vector loads to distinct
// addresses, each into a different architectural register.
func independentLoads(n, vlen int) *trace.Trace {
	b := trace.NewBuilder("loads")
	b.SetVL(vlen, isa.A(0))
	for i := 0; i < n; i++ {
		b.VLoad(isa.V(i%8), uint64(0x10000+i*0x10000))
	}
	return b.Build()
}

func TestRenamingRemovesWAWStalls(t *testing.T) {
	// Two loads writing the same architectural register: the reference
	// machine serialises on WAW; the OOOVA renames and pipelines them.
	b := trace.NewBuilder("waw")
	b.SetVL(64, isa.A(0))
	b.VLoad(isa.V(2), 0x1000)
	b.VLoad(isa.V(2), 0x9000)
	tr := b.Build()

	ref := refsim.Run(tr, refsim.DefaultConfig())
	ooo := Run(tr, cfgN(16)).Stats
	if ooo.Cycles >= ref.Cycles {
		t.Errorf("OOOVA %d cycles >= REF %d on WAW-bound code", ooo.Cycles, ref.Cycles)
	}
	// The two loads should overlap on the bus: back-to-back occupancy
	// (2 × (startup 8 + VL 64)) plus one latency, not two.
	if ooo.Cycles > 72+72+50+15 {
		t.Errorf("OOOVA cycles = %d; loads did not pipeline", ooo.Cycles)
	}
}

func TestLoadsSlipAheadOfComputation(t *testing.T) {
	// A dependent compute chain followed by an independent load: the load
	// should issue while the chain is still executing, hiding its latency.
	b := trace.NewBuilder("slip")
	b.SetVL(64, isa.A(0))
	b.VLoad(isa.V(0), 0x1000)
	b.Vector(isa.OpVMul, isa.V(1), isa.V(0), isa.V(2)) // waits for the load
	b.Vector(isa.OpVMul, isa.V(3), isa.V(1), isa.V(2)) // chain
	b.VLoad(isa.V(4), 0x20000)                         // independent
	tr := b.Build()

	var busStarts []int64
	cfg := cfgN(16)
	cfg.Sink = probe.InsnFunc(func(e probe.Event) {
		if e.Index == 1 || e.Index == 4 {
			busStarts = append(busStarts, e.Issue)
		}
	})
	Run(tr, cfg)
	if len(busStarts) != 2 {
		t.Fatalf("probe captured %d entries", len(busStarts))
	}
	// The second load must issue just behind the first on the bus
	// (one occupancy of startup 8 + VL 64 later), not after the multiply
	// chain (~150+ cycles).
	if busStarts[1] > busStarts[0]+80 {
		t.Errorf("independent load issued at %d (first at %d): did not slip ahead",
			busStarts[1], busStarts[0])
	}
}

func TestOOOVABeatsRefEvenAtLatencyOne(t *testing.T) {
	// §4.3: "even at a memory latency of 1 cycle the OOOVA machine
	// typically obtains speedups over the reference machine".
	b := trace.NewBuilder("lat1")
	b.SetVL(64, isa.A(0))
	for i := 0; i < 40; i++ {
		r := i % 4 * 2
		b.VLoad(isa.V(r), uint64(0x10000+i*0x1000))
		b.Vector(isa.OpVMul, isa.V(r+1), isa.V(r), isa.V((r+2)%8))
		b.VStore(isa.V(r+1), uint64(0x200000+i*0x1000))
	}
	tr := b.Build()
	refCfg := refsim.DefaultConfig()
	refCfg.MemLatency = 1
	oooCfg := cfgN(16)
	oooCfg.MemLatency = 1
	ref := refsim.Run(tr, refCfg)
	ooo := Run(tr, oooCfg).Stats
	if ooo.Cycles >= ref.Cycles {
		t.Errorf("OOOVA %d >= REF %d at latency 1", ooo.Cycles, ref.Cycles)
	}
}

func TestLatencyToleranceFlatness(t *testing.T) {
	// §4.3: OOOVA tolerates latencies up to 100 cycles with small
	// degradation on long-vector codes.
	tr := independentLoads(60, 128)
	run := func(lat int64) int64 {
		c := cfgN(16)
		c.MemLatency = lat
		return Run(tr, c).Stats.Cycles
	}
	c1, c100 := run(1), run(100)
	degr := float64(c100-c1) / float64(c1)
	if degr > 0.10 {
		t.Errorf("latency 1→100 degradation = %.1f%%, want small (<10%%)", degr*100)
	}
}

func TestMorePhysRegsHelpUpTo16(t *testing.T) {
	// Fig 5 shape: 9 → 16 registers improves clearly.
	b := trace.NewBuilder("regs")
	b.SetVL(64, isa.A(0))
	for i := 0; i < 60; i++ {
		r := i % 4 * 2
		b.VLoad(isa.V(r), uint64(0x10000+i*0x1000))
		b.Vector(isa.OpVAdd, isa.V(r+1), isa.V(r), isa.V((r+3)%8))
		b.VStore(isa.V(r+1), uint64(0x400000+i*0x1000))
	}
	tr := b.Build()
	c9 := Run(tr, cfgN(9)).Stats.Cycles
	c16 := Run(tr, cfgN(16)).Stats.Cycles
	c64 := Run(tr, cfgN(64)).Stats.Cycles
	if c16 >= c9 {
		t.Errorf("16 regs (%d) not faster than 9 regs (%d)", c16, c9)
	}
	if c64 > c16 {
		t.Errorf("64 regs (%d) slower than 16 (%d)", c64, c16)
	}
	// Diminishing returns: 16→64 gain much smaller than 9→16 gain.
	gain916 := float64(c9-c16) / float64(c9)
	gain1664 := float64(c16-c64) / float64(c16)
	if gain1664 > gain916 {
		t.Errorf("gain 16→64 (%.3f) exceeds gain 9→16 (%.3f)", gain1664, gain916)
	}
}

func TestMemPortIdleDropsVsRef(t *testing.T) {
	// Fig 6: the OOOVA more than halves memory-port idle time.
	b := trace.NewBuilder("portidle")
	b.SetVL(64, isa.A(0))
	for i := 0; i < 50; i++ {
		r := i % 4 * 2
		b.VLoad(isa.V(r), uint64(0x10000+i*0x1000))
		b.Vector(isa.OpVMul, isa.V(r+1), isa.V(r), isa.V((r+2)%8))
		b.VStore(isa.V(r+1), uint64(0x300000+i*0x1000))
	}
	tr := b.Build()
	ref := refsim.Run(tr, refsim.DefaultConfig())
	ooo := Run(tr, cfgN(16)).Stats
	if ooo.MemPortIdlePct() >= ref.MemPortIdlePct() {
		t.Errorf("OOOVA idle %.1f%% >= REF idle %.1f%%",
			ooo.MemPortIdlePct(), ref.MemPortIdlePct())
	}
}

func TestLateCommitCostsPerformance(t *testing.T) {
	// §5: late commit (precise traps) costs some performance.
	b := trace.NewBuilder("late")
	b.SetVL(64, isa.A(0))
	for i := 0; i < 40; i++ {
		r := i % 4 * 2
		b.VLoad(isa.V(r), uint64(0x10000+i*0x1000))
		b.Vector(isa.OpVAdd, isa.V(r+1), isa.V(r), isa.V((r+3)%8))
		b.VStore(isa.V(r+1), uint64(0x500000+i*0x1000))
	}
	tr := b.Build()
	early := cfgN(16)
	late := cfgN(16)
	late.Commit = rob.PolicyLate
	ce := Run(tr, early).Stats.Cycles
	cl := Run(tr, late).Stats.Cycles
	if cl < ce {
		t.Errorf("late commit (%d) faster than early (%d)", cl, ce)
	}
}

func TestLateCommitHurtsLoadStoreDependences(t *testing.T) {
	// §5: trfd/dyfesm degrade severely under late commit because the last
	// store of iteration i feeds the first load of iteration i+1 at the
	// same address.
	mk := func() *trace.Trace {
		b := trace.NewBuilder("trfd-like")
		b.SetVL(16, isa.A(0))
		for i := 0; i < 30; i++ {
			b.VLoad(isa.V(0), 0x8000) // same address as the previous store
			b.Vector(isa.OpVAdd, isa.V(2), isa.V(0), isa.V(4))
			b.Vector(isa.OpVAdd, isa.V(3), isa.V(2), isa.V(5))
			b.VStore(isa.V(3), 0x8000)
		}
		return b.Build()
	}
	tr := mk()
	early := cfgN(16)
	late := cfgN(16)
	late.Commit = rob.PolicyLate
	ce := Run(tr, early).Stats.Cycles
	cl := Run(tr, late).Stats.Cycles
	slowdown := float64(cl)/float64(ce) - 1
	if slowdown < 0.08 {
		t.Errorf("late-commit slowdown on store→load dependence = %.1f%%, want substantial",
			slowdown*100)
	}
}

func TestDisambiguationBlocksRAW(t *testing.T) {
	// A store followed by an overlapping load: the load must not issue its
	// requests before the store.
	b := trace.NewBuilder("raw")
	b.SetVL(64, isa.A(0))
	b.Vector(isa.OpVAdd, isa.V(1), isa.V(2), isa.V(3))
	b.VStore(isa.V(1), 0x8000)
	b.VLoad(isa.V(4), 0x8000)
	tr := b.Build()
	var storeBus, loadBus int64
	cfg := cfgN(16)
	cfg.Sink = probe.InsnFunc(func(e probe.Event) {
		switch e.Index {
		case 2:
			storeBus = e.Issue
		case 3:
			loadBus = e.Issue
		}
	})
	Run(tr, cfg)
	if loadBus < storeBus+64 {
		t.Errorf("overlapping load issued at %d before store finished its requests (%d+64)",
			loadBus, storeBus)
	}
}

func TestDisjointLoadPassesStore(t *testing.T) {
	// A store with unready data followed by a disjoint load: the load
	// issues first (out-of-order memory issue).
	b := trace.NewBuilder("pass")
	b.SetVL(64, isa.A(0))
	b.VLoad(isa.V(0), 0x100000)                        // slow producer
	b.Vector(isa.OpVMul, isa.V(1), isa.V(0), isa.V(2)) // waits on load
	b.VStore(isa.V(1), 0x8000)                         // data ready late
	b.VLoad(isa.V(4), 0x40000)                         // disjoint, independent
	tr := b.Build()
	var storeBus, loadBus int64
	cfg := cfgN(16)
	cfg.Sink = probe.InsnFunc(func(e probe.Event) {
		switch e.Index {
		case 3:
			storeBus = e.Issue
		case 4:
			loadBus = e.Issue
		}
	})
	Run(tr, cfg)
	if loadBus >= storeBus {
		t.Errorf("disjoint load (bus %d) failed to pass the blocked store (bus %d)",
			loadBus, storeBus)
	}
}

func TestQueueDepthMattersLittle(t *testing.T) {
	// Fig 5: OOOVA-128 barely improves over OOOVA-16.
	tr := independentLoads(80, 64)
	c16 := Run(tr, cfgN(16)).Stats.Cycles
	cfg128 := cfgN(16)
	cfg128.QueueSlots = 128
	c128 := Run(tr, cfg128).Stats.Cycles
	if c128 > c16 {
		t.Errorf("deeper queues slowed execution: %d vs %d", c128, c16)
	}
	if gain := float64(c16-c128) / float64(c16); gain > 0.15 {
		t.Errorf("queue 16→128 gain %.1f%% unexpectedly large", gain*100)
	}
}

func TestCommitWidthAndROBBound(t *testing.T) {
	// A long scalar stream is bounded below by ROB drain at the commit
	// width and by the 1-per-cycle decode.
	b := trace.NewBuilder("scalars")
	for i := 0; i < 500; i++ {
		b.Scalar(isa.OpAAdd, isa.A(i%8), isa.A((i+1)%8), isa.A((i+2)%8))
	}
	tr := b.Build()
	st := Run(tr, cfgN(16)).Stats
	if st.Cycles < 500 {
		t.Errorf("cycles = %d < instruction count: decode is 1/cycle", st.Cycles)
	}
}

func TestBranchMispredictBubbles(t *testing.T) {
	// Alternating-direction branches defeat the 2-bit counters; the run
	// with noisy branches must be slower than with steady ones.
	mk := func(alternating bool) *trace.Trace {
		b := trace.NewBuilder("br")
		for i := 0; i < 200; i++ {
			b.Scalar(isa.OpAAdd, isa.A(0), isa.A(1), isa.A(2))
			taken := true
			if alternating {
				taken = i%2 == 0
			}
			b.SetPC(0x100)
			b.Branch(0x40, taken)
			b.SetPC(uint64(0x200 + i*8))
		}
		return b.Build()
	}
	steady := Run(mk(false), cfgN(16)).Stats
	noisy := Run(mk(true), cfgN(16)).Stats
	if noisy.Cycles <= steady.Cycles {
		t.Errorf("alternating branches (%d cycles) not slower than steady (%d)",
			noisy.Cycles, steady.Cycles)
	}
	if noisy.Mispredicts <= steady.Mispredicts {
		t.Errorf("mispredicts: noisy %d <= steady %d", noisy.Mispredicts, steady.Mispredicts)
	}
}

func TestStateAccountingConsistent(t *testing.T) {
	tr := independentLoads(30, 64)
	st := Run(tr, cfgN(16)).Stats
	if st.States.Total() != st.Cycles {
		t.Errorf("state total %d != cycles %d", st.States.Total(), st.Cycles)
	}
	if st.States.MemIdleCycles()+st.MemPortBusy != st.Cycles {
		t.Errorf("mem idle %d + busy %d != cycles %d",
			st.States.MemIdleCycles(), st.MemPortBusy, st.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	b := trace.NewBuilder("det")
	b.SetVL(48, isa.A(0))
	for i := 0; i < 60; i++ {
		b.VLoad(isa.V(i%8), uint64(0x10000+i*0x800))
		b.Vector(isa.OpVMul, isa.V((i+1)%8), isa.V(i%8), isa.V((i+3)%8))
		if i%5 == 0 {
			b.VStore(isa.V((i+1)%8), uint64(0x600000+i*0x800))
		}
	}
	tr := b.Build()
	a := Run(tr, cfgN(12)).Stats
	c := Run(tr, cfgN(12)).Stats
	if a.Cycles != c.Cycles || a.States != c.States || a.MemRequests != c.MemRequests {
		t.Error("nondeterministic simulation")
	}
}

func TestRenameTablesStayConsistent(t *testing.T) {
	tr := independentLoads(100, 32)
	res := Run(tr, cfgN(10))
	for _, tb := range res.Tables {
		if err := tb.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.PhysVRegs != 16 || c.QueueSlots != 16 || c.ROBSize != 64 ||
		c.CommitWidth != 4 || c.MemLatency != 50 {
		t.Errorf("defaults = %+v", c)
	}
	if DefaultConfig().Name() != "OOOVA" {
		t.Errorf("name = %q", DefaultConfig().Name())
	}
	le := DefaultConfig()
	le.LoadElim = ElimSLEVLE
	if le.Name() != "OOOVA+SLE+VLE" {
		t.Errorf("name = %q", le.Name())
	}
}
