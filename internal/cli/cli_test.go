package cli

import (
	"testing"

	"oovec/internal/ooosim"
	"oovec/internal/refsim"
)

// TestConfigBounds: the values ovsim used to accept while /v1/sim rejected
// them — too few physical registers to rename, a negative latency — fail
// with an error on every surface, and the paper's defaults pass.
func TestConfigBounds(t *testing.T) {
	ooo := func(edit func(*ooosim.Config)) ooosim.Config {
		cfg := ooosim.DefaultConfig()
		edit(&cfg)
		return cfg
	}
	ref := func(lat int64) refsim.Config {
		cfg := refsim.DefaultConfig()
		cfg.MemLatency = lat
		return cfg
	}
	for _, c := range []struct {
		name string
		err  error
		ok   bool
	}{
		{"ooo default", CheckOOO(ooosim.DefaultConfig()), true},
		{"ooo zero fields", CheckOOO(ooosim.Config{}), true},
		{"ooo vregs 9", CheckOOO(ooo(func(c *ooosim.Config) { c.PhysVRegs = 9 })), true},
		{"ooo vregs 8", CheckOOO(ooo(func(c *ooosim.Config) { c.PhysVRegs = 8 })), false},
		{"ooo latency -5", CheckOOO(ooo(func(c *ooosim.Config) { c.MemLatency = -5 })), false},
		{"ooo queues -1", CheckOOO(ooo(func(c *ooosim.Config) { c.QueueSlots = -1 })), false},
		{"ref default", CheckRef(refsim.DefaultConfig()), true},
		{"ref latency -5", CheckRef(ref(-5)), false},
	} {
		if (c.err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, c.err, c.ok)
		}
	}
}
