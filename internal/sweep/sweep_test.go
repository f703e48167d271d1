package sweep

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"oovec/internal/isa"
	"oovec/internal/ooosim"
	"oovec/internal/trace"
)

// mustGrid unwraps a grid runner's result for tests that run without a
// context, where the error is always nil.
func mustGrid(pts []Point, err error) []Point {
	if err != nil {
		panic(err)
	}
	return pts
}

func kernel() *trace.Trace {
	b := trace.NewBuilder("k")
	b.SetVL(64, isa.A(0))
	for i := 0; i < 20; i++ {
		b.VLoad(isa.V(i%8), uint64(0x10000+i*0x1000))
		b.Vector(isa.OpVAdd, isa.V((i+1)%8), isa.V(i%8), isa.V((i+2)%8))
		b.VStore(isa.V((i+1)%8), uint64(0x200000+i*0x1000))
	}
	return b.Build()
}

func TestRefGridDimensionsAndMonotonicity(t *testing.T) {
	pts := mustGrid(refGrid(kernel(), []int64{1, 50, 100}, Opts{Workers: 1}))
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.Machine != "REF" || p.Program != "k" {
			t.Errorf("point %d metadata: %+v", i, p)
		}
		if i > 0 && p.Cycles < pts[i-1].Cycles {
			t.Errorf("REF cycles decreased with latency")
		}
	}
}

func TestOOOGridCrossProduct(t *testing.T) {
	pts := mustGrid(oooGrid(kernel(), ooosim.DefaultConfig(), []int{9, 16}, []int64{1, 50}, Opts{Workers: 1}))
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	seen := map[[2]int64]bool{}
	for _, p := range pts {
		seen[[2]int64{int64(p.VRegs), p.Latency}] = true
		if p.QueueSlots != 16 || p.Commit != "early" || p.Elim != "none" {
			t.Errorf("resolved config wrong: %+v", p)
		}
	}
	if len(seen) != 4 {
		t.Error("grid points not distinct")
	}
}

func TestWriteCSVRoundTrips(t *testing.T) {
	pts := mustGrid(oooGrid(kernel(), ooosim.DefaultConfig(), []int{16}, []int64{50}, Opts{Workers: 1}))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(&buf)
	rows, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want header + 1", len(rows))
	}
	if rows[0][0] != "program" || len(rows[0]) != 12 {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][0] != "k" || rows[1][1] != "OOOVA" {
		t.Errorf("record = %v", rows[1])
	}
}

func TestCSVDeterministic(t *testing.T) {
	tr := kernel()
	var a, b strings.Builder
	if err := WriteCSV(&a, mustGrid(oooGrid(tr, ooosim.DefaultConfig(), []int{16}, []int64{50}, Opts{Workers: 1}))); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, mustGrid(oooGrid(tr, ooosim.DefaultConfig(), []int{16}, []int64{50}, Opts{Workers: 1}))); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("CSV output nondeterministic")
	}
}
