package simcache

import (
	"bytes"
	"testing"

	"oovec/internal/metrics"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/rob"
	"oovec/internal/tgen"
)

// TestKeySchemeIsStable pins the content-address scheme. Every persisted
// result and parked checkpoint is stored under these keys, so a refactor
// that changes their rendering silently turns every warm store into
// misses. A deliberate change to the scheme orphans every stored entry and
// checkpoint (the store's LRU GC ages them out) and must update the golden
// values here.
func TestKeySchemeIsStable(t *testing.T) {
	p, _ := tgen.PresetByName("swm256")
	p.Insns = 2000
	trace := PresetKey(p)
	if want := "tgen:{Name:swm256 Suite:Spec PaperScalarM:6.2 PaperVectorM:74.5 AvgVL:127 SpillTrafficPct:11 ScalarSpillBias:0 InterIterDep:false HugeBasicBlocks:false GatherFrac:0 StridedFrac:0.05 Insns:2000}"; trace != want {
		t.Errorf("PresetKey:\n got %q\nwant %q", trace, want)
	}

	cases := []struct {
		name       string
		cfgKey     string
		wantCfg    string
		wantResult string
	}{
		{
			"OOOVA default",
			OOOConfigKey(ooosim.DefaultConfig()),
			"ooo:{PhysVRegs:16 QueueSlots:16 ROBSize:64 CommitWidth:4 MemLatency:50 ScalarMemLatency:6 Commit:early LoadElim:none Sink:<nil>}",
			"9bac495203864622bd8f16cbbcd97cf6",
		},
		{
			"OOOVA late commit, SLE+VLE, 32 registers",
			OOOConfigKey(ooosim.Config{PhysVRegs: 32, QueueSlots: 128, MemLatency: 1, Commit: rob.PolicyLate, LoadElim: ooosim.ElimSLEVLE}),
			"ooo:{PhysVRegs:32 QueueSlots:128 ROBSize:64 CommitWidth:4 MemLatency:1 ScalarMemLatency:6 Commit:late LoadElim:SLE+VLE Sink:<nil>}",
			"dbf1bb30a769223d3ad2f88cda6106b0",
		},
		{
			"REF default",
			RefConfigKey(refsim.DefaultConfig()),
			"ref:{MemLatency:50 ScalarMemLatency:6 Sink:<nil>}",
			"ec2bd93050bff04ae58c9005347823ba",
		},
		{
			"REF latency 100, scalar latency 3",
			RefConfigKey(refsim.Config{MemLatency: 100, ScalarMemLatency: 3}),
			"ref:{MemLatency:100 ScalarMemLatency:3 Sink:<nil>}",
			"d5a73f70c83b34bc2b96e4b115a2d1d4",
		},
	}
	for _, c := range cases {
		if c.cfgKey != c.wantCfg {
			t.Errorf("%s config key:\n got %q\nwant %q", c.name, c.cfgKey, c.wantCfg)
		}
		if got := ResultKey(c.cfgKey, trace); got != c.wantResult {
			t.Errorf("%s ResultKey = %s, want %s", c.name, got, c.wantResult)
		}
	}
}

// TestZeroConfigIsPaperDefault checks that an empty configuration is the
// paper's: on both machines Run(tr, Config{}) stores byte-identical stats
// to Run(tr, DefaultConfig()), and the two configurations share a cache
// key, so a request that omits every field hits the default's entry.
func TestZeroConfigIsPaperDefault(t *testing.T) {
	p, _ := tgen.PresetByName("trfd")
	p.Insns = 2000
	tr := tgen.Generate(p)
	encode := func(name string, st *metrics.RunStats) []byte {
		b, err := st.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: encode stats: %v", name, err)
		}
		return b
	}

	if zero, def := encode("OOOVA zero", ooosim.Run(tr, ooosim.Config{}).Stats),
		encode("OOOVA default", ooosim.Run(tr, ooosim.DefaultConfig()).Stats); !bytes.Equal(zero, def) {
		t.Error("OOOVA: zero-config run differs from the default-config run")
	}
	if zero, def := OOOConfigKey(ooosim.Config{}), OOOConfigKey(ooosim.DefaultConfig()); zero != def {
		t.Errorf("OOOVA: zero-config key %q, default key %q", zero, def)
	}

	if zero, def := encode("REF zero", refsim.Run(tr, refsim.Config{})),
		encode("REF default", refsim.Run(tr, refsim.DefaultConfig())); !bytes.Equal(zero, def) {
		t.Error("REF: zero-config run differs from the default-config run")
	}
	if zero, def := RefConfigKey(refsim.Config{}), RefConfigKey(refsim.DefaultConfig()); zero != def {
		t.Errorf("REF: zero-config key %q, default key %q", zero, def)
	}
}
