package simcache

import (
	"testing"

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
			"ooo:{PhysVRegs:16 PhysARegs:64 PhysSRegs:64 PhysMRegs:8 QueueSlots:16 ROBSize:64 CommitWidth:4 MemLatency:50 ScalarMemLatency:6 Commit:early LoadElim:none MispredictPenalty:3 CollectRecords:false ChainLoads:false NoStoreTags:false BankedPorts:false ExactInvalidation:false ElideDeadSpillStores:false Sink:<nil>}",
			"d85c7ee87440fa515f706988186cf95f",
		},
		{
			"OOOVA late commit, SLE+VLE, 32 registers",
			OOOConfigKey(ooosim.Config{PhysVRegs: 32, QueueSlots: 128, MemLatency: 1, Commit: rob.PolicyLate, LoadElim: ooosim.ElimSLEVLE}),
			"ooo:{PhysVRegs:32 PhysARegs:64 PhysSRegs:64 PhysMRegs:8 QueueSlots:128 ROBSize:64 CommitWidth:4 MemLatency:1 ScalarMemLatency:6 Commit:late LoadElim:SLE+VLE MispredictPenalty:3 CollectRecords:false ChainLoads:false NoStoreTags:false BankedPorts:false ExactInvalidation:false ElideDeadSpillStores:false Sink:<nil>}",
			"d373f4037355f17baecb9094a336bb86",
		},
		{
			"REF default",
			RefConfigKey(refsim.DefaultConfig()),
			"ref:{MemLatency:50 ScalarMemLatency:6 TakenBranchPenalty:2 Sink:<nil>}",
			"928797211f57ba011098ff3240e9ec6c",
		},
		{
			"REF latency 100, scalar latency 3",
			RefConfigKey(refsim.Config{MemLatency: 100, ScalarMemLatency: 3}),
			"ref:{MemLatency:100 ScalarMemLatency:3 TakenBranchPenalty:0 Sink:<nil>}",
			"f9de9f6d1c95571acff4ca780732327d",
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
