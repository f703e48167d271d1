package ooosim

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"oovec/internal/iq"
	"oovec/internal/isa"
	"oovec/internal/rob"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// planConfigs are the configurations whose runs record the M queue's
// plan in the tests below: every way execMem records an entry (after a
// Dependence check or, for an eliminated load, without one; at once or
// as a pending store) and the OOOVA-128 window.
func planConfigs() map[string]Config {
	sle := DefaultConfig()
	sle.LoadElim = ElimSLE
	late := DefaultConfig()
	late.Commit = rob.PolicyLate
	late.LoadElim = ElimSLEVLE
	elim := DefaultConfig()
	elim.LoadElim = ElimSLEVLE
	slots128 := DefaultConfig()
	slots128.QueueSlots = 128
	return map[string]Config{
		"default":      DefaultConfig(),
		"SLE":          sle,
		"late+SLE+VLE": late,
		"SLE+VLE":      elim,
		"128 slots":    slots128,
	}
}

// linearMemDeps is the reference plan of a trace at window win: for each
// memory instruction, a scan of the previous win, oldest first, keeping
// those whose Range-stage byte ranges overlap its own with a store among
// the two, each as its distance back minus one.
func linearMemDeps(tr *trace.Trace, win int) [][]uint8 {
	type access struct {
		start, end uint64
		store      bool
	}
	var accs []access
	for i := range tr.Insns {
		in := &tr.Insns[i]
		if in.Op.ExecUnit() == isa.UnitMem {
			start, end := in.MemRange()
			accs = append(accs, access{start, end, in.Op.IsStore()})
		}
	}
	deps := make([][]uint8, len(accs))
	for k, a := range accs {
		for j := max(k-win, 0); j < k; j++ {
			e := accs[j]
			if (a.store || e.store) && e.start <= a.end && a.start <= e.end {
				deps[k] = append(deps[k], uint8(k-1-j))
			}
		}
	}
	return deps
}

// recordedPlan returns the M-queue plan the trace's memo holds, or nil.
func recordedPlan(tr *trace.Trace) *iq.MemDeps {
	d, _ := tr.Memo().(*iq.MemDeps)
	return d
}

// checkRecordedPlan runs cfg on a new trace over tr's instructions and
// requires the plan the run records to equal the linear scan at the M
// queue's window. It returns the number of conflicts the plan lists.
func checkRecordedPlan(t *testing.T, tr *trace.Trace, name string, cfg Config) int {
	t.Helper()
	fresh := unplanned(tr)
	Run(fresh, cfg)
	win := min(cfg.WithDefaults().QueueSlots, 256)
	want := linearMemDeps(fresh, win)
	d := recordedPlan(fresh)
	if d == nil {
		t.Fatalf("%s/%s: the run recorded no plan", tr.Name, name)
	}
	if d.Window() != win || d.Len() != len(want) {
		t.Fatalf("%s/%s: plan covers %d memory instructions at window %d, want %d at %d",
			tr.Name, name, d.Len(), d.Window(), len(want), win)
	}
	total := 0
	for k := range want {
		if got := d.Conflicts(k); !slices.Equal(got, want[k]) {
			t.Fatalf("%s/%s: memory instruction %d: plan lists %v, linear scan %v", tr.Name, name, k, got, want[k])
		}
		total += len(want[k])
	}
	return total
}

// TestMemDepsMatchesLinearScanOnPresets checks the plan a run records on
// every preset, in every configuration of planConfigs.
func TestMemDepsMatchesLinearScanOnPresets(t *testing.T) {
	for _, p := range tgen.Presets() {
		p.Insns = 6000
		tr := tgen.Generate(p)
		for name, cfg := range planConfigs() {
			if n := checkRecordedPlan(t, tr, name, cfg); n == 0 {
				t.Errorf("%s/%s: no conflicts", p.Name, name)
			}
		}
	}
}

// randomMemTrace returns a random trace mixing every memory operation
// with vector and scalar arithmetic and VL/VS changes: gathers and
// scatters with their conservative slop, negative strides, spill stores
// and refills to a few slots, and addresses
// at and near 0 and near the top of the address space, crowded into
// 4 MiB so that ranges overlap, yet sparsely enough to plan.
func randomMemTrace(seed int64) *trace.Trace {
	r := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder("random")
	addr := func() uint64 {
		switch k := r.Intn(32); {
		case k == 0:
			return 0
		case k == 1:
			return uint64(r.Intn(256))
		case k == 2:
			return math.MaxUint64 - uint64(r.Intn(1<<12))
		default:
			return uint64(r.Intn(1 << 22))
		}
	}
	v := func() isa.Reg { return isa.V(r.Intn(isa.NumLogicalV)) }
	s := func() isa.Reg { return isa.S(r.Intn(isa.NumLogicalS)) }
	a := func() isa.Reg { return isa.A(r.Intn(isa.NumLogicalA)) }
	for range 1500 {
		switch r.Intn(14) {
		case 0:
			b.SetVL(1+r.Intn(isa.MaxVL), a())
		case 1:
			strides := []int32{-64, -8, 8, 8, 8, 16, 256}
			b.SetVS(strides[r.Intn(len(strides))], a())
		case 2, 3:
			b.VLoad(v(), addr())
		case 4:
			b.VStore(v(), addr())
		case 5:
			b.Gather(v(), v(), addr())
		case 6:
			b.Scatter(v(), v(), addr())
		case 7:
			b.SpillStore(v(), 0x10000+uint64(r.Intn(4))*0x1000)
		case 8:
			b.SpillLoad(v(), 0x10000+uint64(r.Intn(4))*0x1000)
		case 9:
			b.ScalarLoad([]isa.Op{isa.OpALoad, isa.OpSLoad}[r.Intn(2)], []isa.Reg{a(), s()}[r.Intn(2)], addr())
		case 10:
			if r.Intn(2) == 0 {
				b.ScalarStore(isa.OpAStore, a(), addr())
			} else {
				b.ScalarStore(isa.OpSStore, s(), addr())
			}
		case 11:
			b.Scalar(isa.OpSAdd, s(), s(), s())
		default:
			b.Vector(isa.OpVAdd, v(), v(), v())
		}
	}
	return b.Build()
}

// TestMemDepsMatchesLinearScanOnRandomTraces checks the plan runs record
// on random traces, in every configuration of planConfigs.
func TestMemDepsMatchesLinearScanOnRandomTraces(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		tr := randomMemTrace(seed)
		for name, cfg := range planConfigs() {
			if n := checkRecordedPlan(t, tr, name, cfg); n < 100 {
				t.Fatalf("seed %d/%s: %d conflicts; the trace is too sparse to test the plan", seed, name, n)
			}
		}
	}
}

// TestNarrowRunOnWiderPlanMatchesFresh runs each preset at 128 slots
// first, so the trace keeps a 128-entry plan, then runs the 16-slot
// configurations on it, from the start and resumed from the periodic
// checkpoints of a run on a new trace: they follow the wider plan,
// skipping the entries it lists past their window, and must match runs
// that record their own.
func TestNarrowRunOnWiderPlanMatchesFresh(t *testing.T) {
	configs := planConfigs()
	slots128 := configs["128 slots"]
	delete(configs, "128 slots")
	for _, p := range tgen.Presets() {
		p.Insns = 3000
		wide := tgen.Generate(p)
		Run(wide, slots128)
		plan := recordedPlan(wide)
		if plan == nil || plan.Window() != 128 {
			t.Fatalf("%s: a 128-slot run left no 128-entry plan", p.Name)
		}
		for name, cfg := range configs {
			want := Run(unplanned(wide), cfg).Stats
			mm := NewMachine(cfg)
			if got := mm.Run(wide).Stats; !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: a run following the 128-entry plan differs from a fresh run\ngot:  %+v\nwant: %+v", p.Name, name, got, want)
			}
			if !followsPlan(mm) || recordedPlan(wide) != plan {
				t.Fatalf("%s/%s: the run did not follow the wider plan, or replaced it", p.Name, name)
			}
			var cks []*Checkpoint
			if _, _, err := NewMachine(cfg).RunCheckpointed(unplanned(wide), RunOpts{
				CheckpointEvery: 1000,
				OnCheckpoint:    func(ck *Checkpoint) { cks = append(cks, ck) },
			}); err != nil || len(cks) == 0 {
				t.Fatalf("%s/%s: checkpointing run: %d checkpoints, %v", p.Name, name, len(cks), err)
			}
			for _, ck := range cks {
				got, _, err := NewMachine(cfg).RunCheckpointed(wide, RunOpts{Resume: ck})
				if err != nil {
					t.Fatalf("%s/%s: resume from %d: %v", p.Name, name, ck.NextInsn, err)
				}
				if !reflect.DeepEqual(got.Stats, want) {
					t.Errorf("%s/%s: resume from %d on the wider plan differs from a fresh run", p.Name, name, ck.NextInsn)
				}
			}
		}
	}
}

// TestWhichRunsPublishPlans checks which OOOVA runs leave their M queue's
// plan in the trace's memo: a run from the start that records one, unless
// the memo holds one at least as wide. A run following the memo's plan, a
// resume, a cancelled run, RunWithFault and a run on a trace too dense to
// plan (TestDenseTraceRunsWithoutPlan) leave it as it is. First runs
// racing on one trace are TestConcurrentFirstRunsShareOnePlan's.
func TestWhichRunsPublishPlans(t *testing.T) {
	p, _ := tgen.PresetByName("swm256")
	p.Insns = 6000
	tr := tgen.Generate(p)
	slots128 := DefaultConfig()
	slots128.QueueSlots = 128

	// Runs that publish nothing on a fresh trace.
	var ck *Checkpoint
	if _, _, err := NewMachine(DefaultConfig()).RunCheckpointed(unplanned(tr), RunOpts{
		CheckpointEvery: 3000,
		OnCheckpoint:    func(c *Checkpoint) { ck = c },
	}); err != nil || ck == nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	resumed := unplanned(tr)
	if _, _, err := NewMachine(DefaultConfig()).RunCheckpointed(resumed, RunOpts{Resume: ck}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := unplanned(tr)
	if _, _, err := NewMachine(DefaultConfig()).RunCheckpointed(cancelled, RunOpts{Ctx: ctx}); err == nil {
		t.Fatal("a cancelled run finished")
	}
	faulted := unplanned(tr)
	if _, err := RunWithFault(faulted, DefaultConfig(), 100); err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*trace.Trace{"resumed": resumed, "cancelled": cancelled, "faulted": faulted} {
		if tr.Memo() != nil {
			t.Errorf("a %s run published a plan", name)
		}
	}

	// A first run publishes; a run following its plan does not replace
	// it; a wider run does, and a narrower one then follows the wider plan.
	Run(tr, DefaultConfig())
	narrow := recordedPlan(tr)
	if narrow == nil || narrow.Window() != iq.DefaultSlots {
		t.Fatal("a trace's first run published no 16-entry plan")
	}
	if Run(tr, DefaultConfig()); recordedPlan(tr) != narrow {
		t.Error("a run following the trace's plan replaced it")
	}
	Run(tr, slots128)
	wide := recordedPlan(tr)
	if wide == narrow || wide.Window() != 128 {
		t.Fatal("a 128-slot run did not publish its wider plan")
	}
	if Run(tr, DefaultConfig()); recordedPlan(tr) != wide {
		t.Error("a 16-slot run replaced the trace's wider plan")
	}
}
