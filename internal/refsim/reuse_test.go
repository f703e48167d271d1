package refsim

import (
	"reflect"
	"testing"

	"oovec/internal/tgen"
)

// TestMachineReuseMatchesFreshRuns runs several (benchmark, config) pairs
// twice back to back on one machine and asserts both runs match a fresh
// one-shot Run (mirrors internal/ooosim/reuse_test.go).
func TestMachineReuseMatchesFreshRuns(t *testing.T) {
	slow := DefaultConfig()
	slow.MemLatency = 100
	fast := DefaultConfig()
	fast.MemLatency = 1
	slowScalar := DefaultConfig()
	slowScalar.ScalarMemLatency = 20
	configs := []Config{DefaultConfig(), slow, fast, slowScalar}

	for _, name := range []string{"swm256", "trfd", "bdna"} {
		p, _ := tgen.PresetByName(name)
		p.Insns = 2000
		tr := tgen.Generate(p)
		for ci, cfg := range configs {
			want := Run(tr, cfg)
			mm := NewMachine(cfg)
			if got := mm.Run(tr); !reflect.DeepEqual(got, want) {
				t.Errorf("%s config %d: machine stats differ\ngot:  %+v\nwant: %+v",
					name, ci, got, want)
			}
			// Back-to-back Run on a dirty machine must self-reset.
			if again := mm.Run(tr); !reflect.DeepEqual(again, want) {
				t.Errorf("%s config %d: second run on the machine differs", name, ci)
			}
		}
	}
}

// TestMachineZeroConfigDefaults checks that a Machine resolves the
// latency defaults exactly like the package-level Run.
func TestMachineZeroConfigDefaults(t *testing.T) {
	p, _ := tgen.PresetByName("hydro2d")
	p.Insns = 1000
	tr := tgen.Generate(p)

	want := Run(tr, Config{})
	got := NewMachine(Config{}).Run(tr)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero-config machine run differs\ngot:  %+v\nwant: %+v", got, want)
	}
}
