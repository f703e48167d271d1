package refsim

import (
	"testing"

	"oovec/internal/isa"
	"oovec/internal/probe"
	"oovec/internal/trace"
)

// cfg50 is the default test configuration: 50-cycle memory.
func cfg50() Config { return Config{MemLatency: 50} }

// run is a helper that simulates and returns (issue times, stats).
func runWithProbe(t *trace.Trace, cfg Config) ([]int64, []int64) {
	issues := make([]int64, t.Len())
	cfg.Sink = probe.InsnFunc(func(e probe.Event) { issues[e.Index] = e.Issue })
	st := Run(t, cfg)
	return issues, []int64{st.Cycles}
}

func TestSingleVectorAddTiming(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	b.Vector(isa.OpVAdd, isa.V(2), isa.V(0), isa.V(1))
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	// setvl at 0; vadd: decode 1, serialise on setvl done (1), +1 read
	// crossbar = 2.
	if issues[0] != 0 || issues[1] != 2 {
		t.Errorf("issues = %v, want [0 2]", issues)
	}
	st := Run(tr, cfg50())
	// Completion: issue 2 + startup 8 + lat 4 + writeX 1 + VL-1 63 = 78;
	// total 79.
	if st.Cycles != 79 {
		t.Errorf("cycles = %d, want 79", st.Cycles)
	}
}

func TestChainingFUtoFU(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	b.Vector(isa.OpVAdd, isa.V(2), isa.V(0), isa.V(1)) // issue 2, chain at 15
	b.Vector(isa.OpVMul, isa.V(4), isa.V(2), isa.V(6)) // chains: issue 17
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	// vadd chain point: 2 + startup 8 + lat 4 + writeX 1 = 15; vmul reads at
	// 16 plus the read crossbar = 17 — far before the vadd completes at 78.
	if issues[2] != 17 {
		t.Errorf("chained vmul issue = %d, want 17 (chain, not wait for completion)", issues[2])
	}
	st := Run(tr, cfg50())
	// vmul: 17 + startup 8 + lat 9 + writeX 1 + 63 = 98; total 99.
	if st.Cycles != 99 {
		t.Errorf("cycles = %d, want 99", st.Cycles)
	}
}

func TestNoChainingFromLoads(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	b.VLoad(isa.V(2), 0x1000)                          // bus at 1; complete 115
	b.Vector(isa.OpVAdd, isa.V(4), isa.V(2), isa.V(0)) // must wait full load
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	if issues[1] != 1 {
		t.Errorf("vload bus start = %d, want 1", issues[1])
	}
	// Load complete = 1 + startup 8 + 50 + 1 + 63 = 123; vadd reads at
	// 123 + readX 1 = 124.
	if issues[2] != 124 {
		t.Errorf("dependent vadd issue = %d, want 124 (no load chaining)", issues[2])
	}
}

func TestStoreChainsFromFU(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	b.Vector(isa.OpVAdd, isa.V(2), isa.V(0), isa.V(1)) // issue 2, chain 15
	b.VStore(isa.V(2), 0x1000)                         // chainable consumer
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	// Store can begin once the first element is available: ready at
	// ChainStart+1 = 16, well before the add completes at 78.
	if issues[2] >= 78 {
		t.Errorf("store issue = %d, should chain (< 78)", issues[2])
	}
	if issues[2] != 16 {
		t.Errorf("store issue = %d, want 16", issues[2])
	}
}

func TestWAWStallsWithoutRenaming(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	b.VLoad(isa.V(2), 0x1000)
	b.VLoad(isa.V(2), 0x9000) // same architectural register: WAW
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	// First load completes at 115; the second write of v2 must wait
	// (WAW), even though the bus frees at 65.
	if issues[2] <= 100 {
		t.Errorf("WAW load issue = %d, want > 100 (stall on prior writer)", issues[2])
	}
}

func TestWARStallsWithoutRenaming(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	b.Vector(isa.OpVAdd, isa.V(2), isa.V(0), isa.V(1)) // reads v0
	b.VLoad(isa.V(0), 0x1000)                          // overwrites v0: WAR
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	if issues[2] <= issues[1] {
		t.Errorf("WAR writer issue %d should be after reader start %d", issues[2], issues[1])
	}
}

func TestFU2OnlyRouting(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(32, isa.A(0))
	// Two multiplies must serialise on FU2 even though FU1 is idle.
	b.Vector(isa.OpVMul, isa.V(2), isa.V(0), isa.V(1))
	b.Vector(isa.OpVMul, isa.V(4), isa.V(0), isa.V(1))
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	if issues[2]-issues[1] < 32 {
		t.Errorf("second vmul at %d, first at %d: FU2 must serialise by VL=32",
			issues[2], issues[1])
	}
}

func TestFlexibleOpsUseBothFUs(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	// Two independent adds: second should go to the other FU, limited only
	// by decode (1/cycle) and ports, not FU occupancy.
	b.Vector(isa.OpVAdd, isa.V(0), isa.V(1), isa.V(2))
	b.Vector(isa.OpVAdd, isa.V(4), isa.V(5), isa.V(6))
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	if issues[2]-issues[1] >= 64 {
		t.Errorf("independent adds serialised (%d after %d); should use both FUs",
			issues[2], issues[1])
	}
}

func TestBankPortConflictStalls(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	// v0,v1 share bank 0 (2 read ports). Three simultaneous readers of
	// bank 0 exceed its ports.
	b.Vector(isa.OpVAdd, isa.V(2), isa.V(0), isa.V(1)) // takes both bank-0 read ports
	b.Vector(isa.OpVAdd, isa.V(4), isa.V(0), isa.V(6)) // needs a bank-0 read port
	tr := b.Build()
	st := Run(tr, cfg50())
	if st.VRegPortConflictCycles == 0 {
		t.Error("expected register-file port conflict cycles")
	}
}

func TestTakenBranchBubble(t *testing.T) {
	b := trace.NewBuilder("t")
	b.Scalar(isa.OpAAdd, isa.A(0), isa.A(1), isa.A(2))
	b.Branch(0x40, true)
	b.Scalar(isa.OpAAdd, isa.A(3), isa.A(1), isa.A(2))
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	// Branch at 1; next instruction delayed by the 2-cycle bubble: 1+1+2 = 4.
	if issues[2] != 4 {
		t.Errorf("post-branch issue = %d, want 4", issues[2])
	}
}

func TestScalarLoadLatency(t *testing.T) {
	b := trace.NewBuilder("t")
	b.ScalarLoad(isa.OpSLoad, isa.S(0), 0x100)
	b.Scalar(isa.OpSAdd, isa.S(1), isa.S(0), isa.S(2))
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	// Scalar loads hit the scalar cache: bus at 0, value ready 0+6+1 = 7.
	if issues[1] != 7 {
		t.Errorf("dependent scalar add issue = %d, want 7", issues[1])
	}
}

func TestMemPortAccounting(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	b.VLoad(isa.V(0), 0x1000)
	b.VLoad(isa.V(2), 0x9000)
	b.ScalarLoad(isa.OpSLoad, isa.S(0), 0x100)
	tr := b.Build()
	st := Run(tr, cfg50())
	// Each vector load holds the port for startup 8 + VL 64 cycles.
	if st.MemPortBusy != 72+72+1 {
		t.Errorf("MemPortBusy = %d, want 145", st.MemPortBusy)
	}
	if st.MemRequests != 129 {
		t.Errorf("MemRequests = %d, want 129", st.MemRequests)
	}
	if st.MemPortIdlePct() <= 0 {
		t.Error("expected some idle port cycles")
	}
}

func TestStateBreakdownSumsToTotal(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	for i := 0; i < 8; i++ {
		b.VLoad(isa.V(0), uint64(0x1000+i*0x200))
		b.Vector(isa.OpVAdd, isa.V(2), isa.V(0), isa.V(4))
		b.Vector(isa.OpVMul, isa.V(6), isa.V(2), isa.V(4))
		b.VStore(isa.V(6), uint64(0x20000+i*0x200))
	}
	tr := b.Build()
	st := Run(tr, cfg50())
	if st.States.Total() != st.Cycles {
		t.Errorf("state total %d != cycles %d", st.States.Total(), st.Cycles)
	}
	if st.States.MemIdleCycles()+st.MemPortBusy != st.Cycles {
		t.Errorf("mem idle %d + busy %d != cycles %d",
			st.States.MemIdleCycles(), st.MemPortBusy, st.Cycles)
	}
}

func TestLatencySensitivity(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(16, isa.A(0)) // short vectors expose latency (like dyfesm/trfd)
	for i := 0; i < 20; i++ {
		b.VLoad(isa.V(0), uint64(0x1000+i*0x200))
		b.Vector(isa.OpVAdd, isa.V(2), isa.V(0), isa.V(4))
		b.VStore(isa.V(2), uint64(0x20000+i*0x200))
	}
	tr := b.Build()
	c1 := Run(tr, Config{MemLatency: 1}).Cycles
	c100 := Run(tr, Config{MemLatency: 100}).Cycles
	if c100 <= c1 {
		t.Errorf("REF must be latency sensitive: c(100)=%d <= c(1)=%d", c100, c1)
	}
	// With a dependent chain per iteration the gap should be large.
	if float64(c100)/float64(c1) < 1.5 {
		t.Errorf("latency 100/1 ratio = %.2f, want >= 1.5", float64(c100)/float64(c1))
	}
}

func TestDeterminism(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(64, isa.A(0))
	for i := 0; i < 50; i++ {
		b.VLoad(isa.V(i%8), uint64(0x1000+i*0x200))
		b.Vector(isa.OpVAdd, isa.V((i+2)%8), isa.V(i%8), isa.V((i+4)%8))
	}
	tr := b.Build()
	a := Run(tr, cfg50())
	c := Run(tr, cfg50())
	if a.Cycles != c.Cycles || a.States != c.States || a.MemPortBusy != c.MemPortBusy {
		t.Error("two runs of the same trace+config disagree")
	}
}

func TestInOrderIssueMonotonic(t *testing.T) {
	b := trace.NewBuilder("t")
	b.SetVL(32, isa.A(0))
	for i := 0; i < 30; i++ {
		b.VLoad(isa.V(i%8), uint64(0x1000+i*0x100))
		b.Vector(isa.OpVMul, isa.V((i+1)%8), isa.V(i%8), isa.V((i+3)%8))
		b.Scalar(isa.OpAAdd, isa.A(0), isa.A(1), isa.A(2))
	}
	tr := b.Build()
	issues, _ := runWithProbe(tr, cfg50())
	for i := 1; i < len(issues); i++ {
		if issues[i] <= issues[i-1] {
			t.Fatalf("issue order violated at %d: %d then %d", i, issues[i-1], issues[i])
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	if DefaultConfig().MemLatency != 50 {
		t.Error("default memory latency must be the paper's 50 cycles")
	}
}
