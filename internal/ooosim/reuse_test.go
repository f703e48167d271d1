package ooosim

import (
	"reflect"
	"sync"
	"testing"

	"oovec/internal/isa"
	"oovec/internal/rob"
	"oovec/internal/tgen"
	"oovec/internal/trace"
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

// TestConcurrentFirstRunsShareOnePlan starts runs of several
// configurations on one fresh trace at the same moment, so each records
// the M queue's plan and the trace's memo keeps one, the widest. They
// must match runs on an identical trace simulated one by one; one machine
// then runs both traces in turn and must match too.
func TestConcurrentFirstRunsShareOnePlan(t *testing.T) {
	late := DefaultConfig()
	late.Commit = rob.PolicyLate
	late.LoadElim = ElimSLEVLE
	slots128 := DefaultConfig()
	slots128.QueueSlots = 128
	configs := []Config{DefaultConfig(), late, slots128, DefaultConfig()}

	p, _ := tgen.PresetByName("bdna")
	p.Insns = 3000
	shared, serial := tgen.Generate(p), tgen.Generate(p)
	got := make([]*Result, len(configs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, cfg := range configs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = Run(shared, cfg)
		}()
	}
	close(start)
	wg.Wait()
	for i, cfg := range configs {
		if want := Run(serial, cfg).Stats; !reflect.DeepEqual(got[i].Stats, want) {
			t.Errorf("config %d: concurrent first run differs from a serial one\ngot:  %+v\nwant: %+v", i, got[i].Stats, want)
		}
	}
	if d := recordedPlan(shared); d == nil || d.Window() != 128 {
		t.Fatal("the trace's memo holds no plan of the widest window")
	}

	q, _ := tgen.PresetByName("swm256")
	q.Insns = 3000
	other := tgen.Generate(q)
	mm := NewMachine(DefaultConfig())
	for _, tr := range []*trace.Trace{shared, other, shared} {
		if got, want := mm.Run(tr).Stats, Run(tr, DefaultConfig()).Stats; !reflect.DeepEqual(got, want) {
			t.Errorf("%s on a machine that ran another trace differs from a fresh run", tr.Name)
		}
	}
}

// unplanned returns a new trace over tr's instructions: its memo is
// empty, so its next run from the start records the M queue's plan.
func unplanned(tr *trace.Trace) *trace.Trace {
	return &trace.Trace{Name: tr.Name, Suite: tr.Suite, Insns: tr.Insns}
}

// followsPlan reports whether the machine's M queue followed a plan in
// its last run (iq.MemQueue keeps the plan unexported).
func followsPlan(mm *Machine) bool {
	return !reflect.ValueOf(mm.m.mQ).Elem().FieldByName("deps").IsNil()
}

// TestPlanlessRunsMatchPlanned checks the M queue's ways of finding an
// access's conflicts against each other on whole OOOVA runs: a trace's
// first run, which has no plan and records one from the range index, and
// the runs after it, which follow that plan. On every preset and in
// several configurations, a recording run must match a following run, and
// so must resumes on each path from the periodic checkpoints of the other.
// A resume without a plan queries the range index and records nothing.
func TestPlanlessRunsMatchPlanned(t *testing.T) {
	configs := checkpointConfigs()
	slots128 := DefaultConfig()
	slots128.QueueSlots = 128
	configs["128 slots"] = slots128
	for _, p := range tgen.Presets() {
		p.Insns = 3000
		tr := tgen.Generate(p)
		for name, cfg := range configs {
			planned := unplanned(tr)
			Run(planned, cfg) // records the plan
			mm := NewMachine(cfg)
			want := mm.Run(planned).Stats
			if !followsPlan(mm) {
				t.Fatalf("%s/%s: a run on a trace with a plan of its window did not follow it", p.Name, name)
			}
			mm = NewMachine(cfg)
			if got := mm.Run(unplanned(tr)).Stats; !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: a run recording the plan differs from one following it\ngot:  %+v\nwant: %+v", p.Name, name, got, want)
			}
			if followsPlan(mm) {
				t.Fatalf("%s/%s: a trace's first run followed a plan", p.Name, name)
			}
			for _, fromPlanned := range []bool{true, false} {
				from := planned
				if !fromPlanned {
					from = unplanned(tr)
				}
				var cks []*Checkpoint
				if _, _, err := NewMachine(cfg).RunCheckpointed(from, RunOpts{
					CheckpointEvery: 1000,
					OnCheckpoint:    func(ck *Checkpoint) { cks = append(cks, ck) },
				}); err != nil || len(cks) == 0 {
					t.Fatalf("%s/%s: checkpointing run: %d checkpoints, %v", p.Name, name, len(cks), err)
				}
				for _, ck := range cks {
					to := planned
					if fromPlanned {
						to = unplanned(tr)
					}
					mm := NewMachine(cfg)
					got, _, err := mm.RunCheckpointed(to, RunOpts{Resume: ck})
					if err != nil {
						t.Fatalf("%s/%s: resume from %d: %v", p.Name, name, ck.NextInsn, err)
					}
					if followsPlan(mm) == fromPlanned {
						t.Fatalf("%s/%s: a resume from a checkpoint of the other path took the same one", p.Name, name)
					}
					if !fromPlanned && to.Memo() != planned.Memo() {
						t.Fatalf("%s/%s: a resume replaced the trace's plan", p.Name, name)
					}
					if fromPlanned && to.Memo() != nil {
						t.Fatalf("%s/%s: a resume without a plan published one", p.Name, name)
					}
					if !reflect.DeepEqual(got.Stats, want) {
						t.Errorf("%s/%s: resume from %d with the plan %v differs from a planned run",
							p.Name, name, ck.NextInsn, !fromPlanned)
					}
				}
			}
		}
	}
}

// TestDenseTraceRunsWithoutPlan runs a trace whose memory instructions
// all conflict, too dense to plan: every run on it stops recording and
// queries the range index. One machine running it and a planned trace in turn, and resumes
// of the dense trace, must match fresh runs.
func TestDenseTraceRunsWithoutPlan(t *testing.T) {
	b := trace.NewBuilder("dense")
	for i := range 1200 {
		b.VLoad(isa.V(i%4), 0x1000)
		b.Vector(isa.OpVAdd, isa.V(4+i%4), isa.V(i%4), isa.V(i%4))
		b.VStore(isa.V(4+i%4), 0x1000+uint64(i%3)*8)
	}
	dense := b.Build()
	cfg := DefaultConfig()
	cfg.LoadElim = ElimSLEVLE
	if Run(dense, cfg); dense.Memo() != nil {
		t.Fatal("a trace whose every access conflicts got a plan")
	}
	p, _ := tgen.PresetByName("bdna")
	p.Insns = 3000
	planned := tgen.Generate(p)
	Run(planned, cfg)
	mm := NewMachine(cfg)
	for _, tr := range []*trace.Trace{dense, planned, dense, planned} {
		if got, want := mm.Run(tr).Stats, Run(tr, cfg).Stats; !reflect.DeepEqual(got, want) {
			t.Errorf("%s on a machine that ran the other trace differs from a fresh run", tr.Name)
		}
		if followsPlan(mm) != (tr == planned) {
			t.Errorf("%s: the M queue's plan attached %v", tr.Name, followsPlan(mm))
		}
	}

	want := Run(dense, cfg).Stats
	var cks []*Checkpoint
	if _, _, err := NewMachine(cfg).RunCheckpointed(dense, RunOpts{
		CheckpointEvery: 700,
		OnCheckpoint:    func(ck *Checkpoint) { cks = append(cks, ck) },
	}); err != nil || len(cks) < 3 {
		t.Fatalf("checkpointing run: %d checkpoints, %v", len(cks), err)
	}
	for _, ck := range cks {
		got, _, err := mm.RunCheckpointed(dense, RunOpts{Resume: ck})
		if err != nil {
			t.Fatalf("resume from %d: %v", ck.NextInsn, err)
		}
		if !reflect.DeepEqual(got.Stats, want) {
			t.Errorf("resume from %d differs from an uninterrupted run", ck.NextInsn)
		}
	}
}
