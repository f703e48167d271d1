package trace_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"oovec/internal/iq"
	"oovec/internal/isa"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// linearMemDeps is the reference plan of a trace: for each memory
// instruction, a scan of the previous 256, oldest first, keeping those
// whose Range-stage byte ranges overlap its own with a store among the
// two, each as its distance back minus one.
func linearMemDeps(tr *trace.Trace) [][]uint8 {
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
		for j := max(k-256, 0); j < k; j++ {
			e := accs[j]
			if (a.store || e.store) && e.start <= a.end && a.start <= e.end {
				deps[k] = append(deps[k], uint8(k-1-j))
			}
		}
	}
	return deps
}

// checkMemDeps requires the trace's plan to equal the linear scan and
// returns the number of conflicts it lists.
func checkMemDeps(t *testing.T, tr *trace.Trace) int {
	t.Helper()
	want := linearMemDeps(tr)
	d := tr.MemDeps()
	if d == nil {
		t.Fatalf("%s: no plan", tr.Name)
	}
	if d.Len() != len(want) {
		t.Fatalf("%s: plan covers %d memory instructions, want %d", tr.Name, d.Len(), len(want))
	}
	total := 0
	for k := range want {
		if got := d.Conflicts(k); !slices.Equal(got, want[k]) {
			t.Fatalf("%s: memory instruction %d: plan lists %v, linear scan %v", tr.Name, k, got, want[k])
		}
		total += len(want[k])
	}
	return total
}

// TestMemDepsMatchesLinearScanOnPresets checks the plan of every preset.
func TestMemDepsMatchesLinearScanOnPresets(t *testing.T) {
	for _, p := range tgen.Presets() {
		p.Insns = 6000
		if n := checkMemDeps(t, tgen.Generate(p)); n == 0 {
			t.Errorf("%s: no conflicts", p.Name)
		}
	}
}

// TestMemDepsMatchesLinearScanOnRandomTraces checks the plan of random
// traces mixing every memory operation with non-memory ones: gathers and
// scatters with their conservative slop, negative and zero strides,
// vector lengths past the maximum, and addresses at and near 0, crowded
// into 4 MiB so that ranges overlap, yet sparsely enough to plan.
func TestMemDepsMatchesLinearScanOnRandomTraces(t *testing.T) {
	ops := []isa.Op{isa.OpALoad, isa.OpSLoad, isa.OpVLoad, isa.OpVGather,
		isa.OpAStore, isa.OpSStore, isa.OpVStore, isa.OpVScatter, isa.OpVAdd, isa.OpNop}
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := &trace.Trace{Name: "random"}
		for range 1500 {
			in := isa.Instruction{Op: ops[r.Intn(len(ops))], VL: uint16(r.Intn(isa.MaxVL + 8))}
			switch k := r.Intn(32); {
			case k == 0:
				in.Addr = 0
			case k == 1:
				in.Addr = uint64(r.Intn(256))
			default:
				in.Addr = uint64(r.Intn(1 << 22))
			}
			switch k := r.Intn(8); {
			case k == 0:
				in.VS = -int32(8 * (1 + r.Intn(8)))
			case k == 1:
				in.VS = 0
			case k == 2:
				in.VS = int32(8 * (1 + r.Intn(64)))
			default:
				in.VS = isa.ElemBytes
			}
			tr.Insns = append(tr.Insns, in)
		}
		if n := checkMemDeps(t, tr); n < 500 {
			t.Fatalf("seed %d: %d conflicts; the trace is too sparse to test the plan", seed, n)
		}
	}
}

// TestRunMemDepsFromSecondRun checks which runs follow the plan: not a
// trace's first run from the start, so a trace simulated once never
// builds one, but every later run, and every run once the plan is built.
// A resume follows a plan already built and builds none. Of runs starting
// at the same moment on a fresh trace, exactly one goes without the plan.
func TestRunMemDepsFromSecondRun(t *testing.T) {
	p, _ := tgen.PresetByName("swm256")
	p.Insns = 2000
	tr := tgen.Generate(p)
	if tr.RunMemDeps(true) != nil || tr.RunMemDeps(false) != nil || tr.RunMemDeps(true) != nil {
		t.Fatal("a trace's first run, or a resume before its second, follows a plan")
	}
	if d := tr.RunMemDeps(false); d == nil || d != tr.MemDeps() || tr.RunMemDeps(false) != d || tr.RunMemDeps(true) != d {
		t.Fatal("later runs do not share the trace's plan")
	}
	built := tgen.Generate(p)
	if d := built.MemDeps(); built.RunMemDeps(false) != d {
		t.Error("the first run on a trace whose plan is built does not follow it")
	}

	shared := tgen.Generate(p)
	got := make([]*iq.MemDeps, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = shared.RunMemDeps(false)
		}()
	}
	close(start)
	wg.Wait()
	without := 0
	for _, d := range got {
		switch {
		case d == nil:
			without++
		case d != shared.MemDeps():
			t.Error("concurrent runs follow different plans")
		}
	}
	if without != 1 {
		t.Errorf("%d of %d concurrent first runs went without the plan, want 1", without, len(got))
	}
}
