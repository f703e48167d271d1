package ooosim

import (
	"reflect"
	"testing"

	"oovec/internal/rob"
	"oovec/internal/tgen"
)

// Reset points mm at a machine built for cfg, so a test can walk a table of
// configurations on one handle. It exists only in tests: production code
// builds a machine per run.
func (mm *Machine) Reset(cfg Config) { mm.m = newMachine(cfg) }

// TestMachineReuseMatchesFreshRuns runs several (benchmark, config) pairs
// twice back to back on one machine and asserts both runs match a fresh
// one-shot Run: every Run starts from power-on state, whatever the
// machine ran before.
func TestMachineReuseMatchesFreshRuns(t *testing.T) {
	late := DefaultConfig()
	late.Commit = rob.PolicyLate
	elim := late
	elim.LoadElim = ElimSLEVLE
	big := DefaultConfig()
	big.PhysVRegs = 32
	configs := []Config{DefaultConfig(), late, elim, big}

	for _, name := range []string{"swm256", "trfd", "bdna"} {
		p, _ := tgen.PresetByName(name)
		p.Insns = 2000
		tr := tgen.Generate(p)
		for ci, cfg := range configs {
			want := Run(tr, cfg).Stats
			mm := NewMachine(cfg)
			if got := mm.Run(tr).Stats; !reflect.DeepEqual(got, want) {
				t.Errorf("%s config %d: machine stats differ\ngot:  %+v\nwant: %+v",
					name, ci, got, want)
			}
			// Back-to-back Run on a dirty machine must self-reset.
			if again := mm.Run(tr).Stats; !reflect.DeepEqual(again, want) {
				t.Errorf("%s config %d: second run on the machine differs", name, ci)
			}
		}
	}
}
