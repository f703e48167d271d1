package sweep

import (
	"reflect"
	"testing"

	"oovec/internal/cli"
	"oovec/internal/ooosim"
	"oovec/internal/tgen"
)

// TestSpecResolve: every grid rule lives in Spec.Resolve, and a spec it
// rejects runs no simulation and emits no row through Run either.
func TestSpecResolve(t *testing.T) {
	ok := Spec{Bench: []string{"trfd"}, Insns: 300}
	edit := func(f func(*Spec)) Spec {
		s := ok
		f(&s)
		return s
	}
	for _, c := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"defaults", ok, true},
		{"empty bench", edit(func(s *Spec) { s.Bench = nil }), false},
		{"unknown bench", edit(func(s *Spec) { s.Bench = []string{"trfd", "nosuch"} }), false},
		{"unknown machine", edit(func(s *Spec) { s.Machine = "vliw" }), false},
		{"regs 8 on ooo", edit(func(s *Spec) { s.Machine, s.Regs = "ooo", []int{16, 8} }), false},
		{"regs 8 on both", edit(func(s *Spec) { s.Machine, s.Regs = "both", []int{8} }), false},
		{"regs 8 on ref", edit(func(s *Spec) { s.Machine, s.Regs, s.Lats = "ref", []int{8}, []int64{50} }), true},
		{"regs at the limit", edit(func(s *Spec) { s.Regs, s.Lats = []int{cli.MaxStructure}, []int64{50} }), true},
		{"regs past the limit", edit(func(s *Spec) { s.Regs = []int{16, cli.MaxStructure + 1} }), false},
		{"regs past the limit on both", edit(func(s *Spec) { s.Machine, s.Regs = "both", []int{cli.MaxStructure + 1} }), false},
		{"lats 0", edit(func(s *Spec) { s.Lats = []int64{1, 0} }), false},
		{"negative insns", edit(func(s *Spec) { s.Insns = -5 }), false},
		{"bad commit", edit(func(s *Spec) { s.Commit = "sideways" }), false},
		{"bad elim", edit(func(s *Spec) { s.Elim = "all" }), false},
	} {
		err := c.spec.Resolve()
		if (err == nil) != c.ok {
			t.Errorf("%s: Resolve err = %v, want ok = %v", c.name, err, c.ok)
		}
		if c.ok {
			continue
		}
		sims, rows := 0, 0
		runErr := Run(c.spec, Opts{Workers: 1, OnSim: func() { sims++ }}, func(pts []Point) error {
			rows += len(pts)
			return nil
		})
		if runErr == nil || sims != 0 || rows != 0 {
			t.Errorf("%s: Run err = %v after %d simulations and %d rows, want an error before any", c.name, runErr, sims, rows)
		}
	}
}

// TestRunRowOrder: Run emits, per benchmark in spec order, the REF grid
// and then the OOOVA grid over the spec's defaults — the row order both
// ovsweep and /v1/sweep promise.
func TestRunRowOrder(t *testing.T) {
	spec := Spec{Bench: []string{"swm256", "trfd"}, Machine: "both", Insns: 300, Elim: "sle"}
	var got []Point
	err := Run(spec, Opts{Workers: 2}, func(pts []Point) error {
		got = append(got, pts...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	base := ooosim.DefaultConfig()
	base.LoadElim = ooosim.ElimSLE
	var want []Point
	for _, name := range spec.Bench {
		p, _ := tgen.PresetByName(name)
		p.Insns = spec.Insns
		tr := tgen.Generate(p)
		want = append(want, mustGrid(refGrid(tr, []int64{1, 50, 100}, Opts{Workers: 1}))...)
		want = append(want, mustGrid(oooGrid(tr, base, []int{9, 12, 16, 32, 64}, []int64{1, 50, 100}, Opts{Workers: 1}))...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Run rows differ from the REF-then-OOOVA grids:\ngot  %+v\nwant %+v", got, want)
	}
}
