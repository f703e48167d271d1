package server

import (
	"context"
	"testing"

	"oovec/internal/metrics"
	"oovec/internal/ooosim"
	"oovec/internal/sim"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// TestPanickedRunDropsItsMachine makes a plan's run panic mid-trace (its
// progress callback panics inside the simulation loop) and checks that the
// machine it ran on never goes back to the pool: a panic may leave a
// machine half-updated, so no later run may be handed it.
func TestPanickedRunDropsItsMachine(t *testing.T) {
	var built []*ooosim.Machine
	pool := &sim.Pool[ooosim.Config, *ooosim.Machine]{New: func(cfg ooosim.Config) *ooosim.Machine {
		m := ooosim.NewMachine(cfg)
		built = append(built, m)
		return m
	}}
	p, _ := tgen.PresetByName("trfd")
	p.Insns = 3 * sim.DefaultCheckEvery
	tr := tgen.Generate(p)
	cfg := ooosim.DefaultConfig()
	plan := newSimPlan("OOOVA", "key", func() *trace.Trace { return tr }, pool, cfg,
		ooosim.DecodeCheckpoint, func(r *ooosim.Result) *metrics.RunStats { return r.Stats })

	const boom = "progress callback panicked"
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("recovered %v, want %q", r, boom)
			}
		}()
		plan.runCk(context.Background(), nil, 0, ckCallbacks{onProgress: func(int) { panic(boom) }})
	}()
	if len(built) != 1 {
		t.Fatalf("built %d machines for one run, want 1", len(built))
	}
	panicked := built[0]
	for i := 0; i < 10; i++ {
		m := pool.Get(cfg)
		if m == panicked {
			t.Fatalf("Get %d handed out the machine whose run panicked", i)
		}
		pool.Put(m)
	}
}
