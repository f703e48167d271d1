package experiments

import (
	"reflect"
	"testing"

	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/rob"
)

// TestMatchesFreshRuns compares the suite's results against one-shot
// simulator runs outside the suite for a cross-section of the grid points
// the drivers visit: every measurement a Render consumes must be
// byte-identical whether it came through the suite's fan-out and result
// cache or straight from the simulator.
func TestMatchesFreshRuns(t *testing.T) {
	s := NewSuite(Opts{Insns: 1200, Parallelism: 2})
	names := []string{"swm256", "trfd", "bdna"}

	for _, name := range names {
		tr := s.Trace(name)
		for _, lat := range []int64{1, 50, 100} {
			cfg := refsim.DefaultConfig()
			cfg.MemLatency = lat
			want := refsim.Run(tr, cfg)
			if got := s.Ref(name, lat); !reflect.DeepEqual(got, want) {
				t.Errorf("%s lat=%d: suite REF differs from fresh\ngot:  %+v\nwant: %+v",
					name, lat, got, want)
			}
		}
		for _, cfg := range oooSampleConfigs() {
			want := ooosim.Run(tr, cfg).Stats
			if got := s.OOO(name, cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s cfg=%+v: suite OOOVA differs from fresh\ngot:  %+v\nwant: %+v",
					name, cfg, got, want)
			}
		}
	}
}

// oooSampleConfigs covers the configuration axes the drivers sweep:
// register counts, queue depth, commit policy, elimination.
func oooSampleConfigs() []ooosim.Config {
	base := ooosim.DefaultConfig()
	regs9 := base
	regs9.PhysVRegs = 9
	regs64 := base
	regs64.PhysVRegs = 64
	deepQ := base
	deepQ.QueueSlots = 128
	late := base
	late.Commit = rob.PolicyLate
	elim := late
	elim.LoadElim = ooosim.ElimSLEVLE
	return []ooosim.Config{base, regs9, regs64, deepQ, late, elim}
}

// TestAllDriversVsSerialWorkers renders every experiment from two
// independent suites — forced-serial (one worker) and three workers — and
// asserts byte-identical output. Unlike TestParallelOutputIdentical this
// uses small distinct worker counts, so grid points interleave across
// workers in a different order than in the serial suite.
func TestAllDriversVsSerialWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serial := NewSuite(Opts{Insns: 1000, Parallelism: 1})
	parallel := NewSuite(Opts{Insns: 1000, Parallelism: 3})
	for _, exp := range AllExperiments {
		want, err := Run(serial, exp)
		if err != nil {
			t.Fatalf("serial %s: %v", exp, err)
		}
		got, err := Run(parallel, exp)
		if err != nil {
			t.Fatalf("3-worker %s: %v", exp, err)
		}
		if got != want {
			t.Errorf("%s: 3-worker output differs from serial", exp)
		}
	}
}
