package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"oovec/internal/isa"
)

// scanCounts is the per-run counting pass UnitCounts replaces.
func scanCounts(t *Trace) (vector, mem, stores int) {
	for i := range t.Insns {
		switch op := t.Insns[i].Op; op.ExecUnit() {
		case isa.UnitV:
			vector++
		case isa.UnitMem:
			mem++
			if op.IsStore() {
				stores++
			}
		}
	}
	return vector, mem, stores
}

// TestTraceCountsMatchScan checks UnitCounts against a scan for a built
// trace, a decode round trip, a hand-built literal and a by-value copy whose
// instructions were truncated, and that the first two carry their counts.
func TestTraceCountsMatchScan(t *testing.T) {
	built := randomTrace(rand.New(rand.NewSource(3)), 3000)
	var buf bytes.Buffer
	if err := Write(&buf, built); err != nil {
		t.Fatal(err)
	}
	decoded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	literal := &Trace{Name: "literal", Insns: built.Insns[:1700]}
	truncated := *built
	truncated.Insns = truncated.Insns[:1234]

	for _, c := range []struct {
		name   string
		tr     *Trace
		cached bool
	}{
		{"built", built, true},
		{"decoded", decoded, true},
		{"literal", literal, false},
		{"truncated copy", &truncated, false},
		{"empty literal", &Trace{}, true},
	} {
		v, m, s := c.tr.UnitCounts()
		wv, wm, ws := scanCounts(c.tr)
		if v != wv || m != wm || s != ws {
			t.Errorf("%s: UnitCounts = %d/%d/%d, scan %d/%d/%d", c.name, v, m, s, wv, wm, ws)
		}
		if cached := c.tr.counts.n == len(c.tr.Insns); cached != c.cached {
			t.Errorf("%s: counts cached = %v, want %v", c.name, cached, c.cached)
		}
	}
	if v, m, _ := built.UnitCounts(); v == 0 || m == 0 {
		t.Errorf("random trace has %d vector computations and %d memory instructions; the test needs both", v, m)
	}
}
