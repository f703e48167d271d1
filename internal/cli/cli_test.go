package cli

import "testing"

// TestConfigBounds: the values ovsim used to accept while /v1/sim rejected
// them — too few physical registers to rename, a negative latency, an
// OOOVA-only setting on the reference machine — and structural sizes past
// MaxStructure fail with an error from the one resolver both surfaces
// share, and the paper's defaults pass.
func TestConfigBounds(t *testing.T) {
	ooo := func(c SimConfig) error {
		_, err := c.OOOConfig()
		return err
	}
	ref := func(c SimConfig) error {
		_, err := c.RefConfig()
		return err
	}
	paper := SimConfig{VRegs: 16, Queues: 16, ROB: 64, CommitWidth: 4, Latency: 50, ScalarLatency: 6, Commit: "early", Elim: "none"}
	for _, c := range []struct {
		name string
		err  error
		ok   bool
	}{
		{"ooo default", ooo(paper), true},
		{"ooo zero fields", ooo(SimConfig{}), true},
		{"ooo vregs 9", ooo(SimConfig{VRegs: 9}), true},
		{"ooo vregs 8", ooo(SimConfig{VRegs: 8}), false},
		{"ooo latency -5", ooo(SimConfig{Latency: -5}), false},
		{"ooo queues -1", ooo(SimConfig{Queues: -1}), false},
		{"ooo vregs at the limit", ooo(SimConfig{VRegs: MaxStructure}), true},
		{"ooo vregs past the limit", ooo(SimConfig{VRegs: MaxStructure + 1}), false},
		{"ooo vregs 2e9", ooo(SimConfig{VRegs: 2_000_000_000}), false},
		{"ooo queues past the limit", ooo(SimConfig{Queues: MaxStructure + 1}), false},
		{"ooo rob past the limit", ooo(SimConfig{ROB: MaxStructure + 1}), false},
		{"ooo commit width past the limit", ooo(SimConfig{CommitWidth: MaxStructure + 1}), false},
		{"ref default", ref(SimConfig{Latency: 50, ScalarLatency: 6, Elim: "none"}), true},
		{"ref latency -5", ref(SimConfig{Latency: -5}), false},
		{"ref rejects vregs", ref(SimConfig{VRegs: 32}), false},
	} {
		if (c.err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, c.err, c.ok)
		}
	}
}
