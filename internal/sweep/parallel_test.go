package sweep

import (
	"bytes"
	"testing"

	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/tgen"
)

// TestGridWorkersDeterministic asserts the parallel grids produce
// byte-identical CSV output to the serial ones for any worker count.
func TestGridWorkersDeterministic(t *testing.T) {
	p, _ := tgen.PresetByName("swm256")
	p.Insns = 1000
	tr := tgen.Generate(p)

	lats := []int64{1, 20, 50, 100}
	regs := []int{9, 16, 32}
	base := ooosim.DefaultConfig()

	render := func(pts []Point) string {
		var b bytes.Buffer
		if err := WriteCSV(&b, pts); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return b.String()
	}

	wantRef := render(mustGrid(refGrid(tr, lats, Opts{Workers: 1})))
	wantOOO := render(mustGrid(oooGrid(tr, base, regs, lats, Opts{Workers: 1})))
	for _, workers := range []int{2, 4, 0} {
		if got := render(mustGrid(refGrid(tr, lats, Opts{Workers: workers}))); got != wantRef {
			t.Errorf("refGrid(Workers: %d) CSV differs from serial", workers)
		}
		if got := render(mustGrid(oooGrid(tr, base, regs, lats, Opts{Workers: workers}))); got != wantOOO {
			t.Errorf("oooGrid(Workers: %d) CSV differs from serial", workers)
		}
	}
}

// TestGridPooledMatchesFresh rebuilds both grids with fresh one-shot
// simulator runs and asserts the pooled-machine grids produce byte-identical
// CSV — the correctness contract of threading reusable machines through the
// sweep layer.
func TestGridPooledMatchesFresh(t *testing.T) {
	p, _ := tgen.PresetByName("bdna")
	p.Insns = 1000
	tr := tgen.Generate(p)

	lats := []int64{1, 50, 100}
	regs := []int{9, 16, 64}
	base := ooosim.DefaultConfig()

	render := func(pts []Point) string {
		var b bytes.Buffer
		if err := WriteCSV(&b, pts); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return b.String()
	}

	// Fresh reference grid, constructed without any machine reuse.
	freshRef := make([]Point, len(lats))
	for i, lat := range lats {
		cfg := refsim.DefaultConfig()
		cfg.MemLatency = lat
		st := refsim.Run(tr, cfg)
		freshRef[i] = Point{
			Program: tr.Name, Machine: "REF", Latency: lat,
			Cycles: st.Cycles, MemRequests: st.MemRequests,
			PortIdlePct: st.MemPortIdlePct(),
		}
	}
	freshOOO := make([]Point, 0, len(regs)*len(lats))
	for _, r := range regs {
		for _, lat := range lats {
			cfg := base
			cfg.PhysVRegs = r
			cfg.MemLatency = lat
			st := ooosim.Run(tr, cfg).Stats
			resolved := cfg.WithDefaults()
			freshOOO = append(freshOOO, Point{
				Program: tr.Name, Machine: "OOOVA", Latency: lat,
				VRegs: r, QueueSlots: resolved.QueueSlots,
				Commit: resolved.Commit.String(), Elim: resolved.LoadElim.String(),
				Cycles: st.Cycles, MemRequests: st.MemRequests,
				PortIdlePct: st.MemPortIdlePct(),
				Mispredicts: st.Mispredicts, Eliminated: st.EliminatedLoads,
			})
		}
	}

	for _, workers := range []int{1, 2, 0} {
		if got := render(mustGrid(refGrid(tr, lats, Opts{Workers: workers}))); got != render(freshRef) {
			t.Errorf("refGrid(Workers: %d): pooled CSV differs from fresh runs", workers)
		}
		if got := render(mustGrid(oooGrid(tr, base, regs, lats, Opts{Workers: workers}))); got != render(freshOOO) {
			t.Errorf("oooGrid(Workers: %d): pooled CSV differs from fresh runs", workers)
		}
	}
}

// TestOOOGridReportsResolvedConfig asserts CSV rows carry the parameters
// the simulator actually resolved (a zero QueueSlots must surface as the
// paper default, not 0).
func TestOOOGridReportsResolvedConfig(t *testing.T) {
	p, _ := tgen.PresetByName("trfd")
	p.Insns = 500
	tr := tgen.Generate(p)

	base := ooosim.Config{} // all zero: every field takes the paper default
	pts := mustGrid(oooGrid(tr, base, []int{16}, []int64{50}, Opts{Workers: 1}))
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	want := ooosim.DefaultConfig().QueueSlots
	if pts[0].QueueSlots != want {
		t.Errorf("QueueSlots = %d, want resolved default %d", pts[0].QueueSlots, want)
	}
	if pts[0].Commit != "early" {
		t.Errorf("Commit = %q, want %q", pts[0].Commit, "early")
	}
}
