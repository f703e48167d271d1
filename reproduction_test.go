package oovec

// The reproduction regression test: asserts the paper's headline result
// shapes (each test cites the paper's figure it bands; `ovbench` prints
// the full tables) on mid-size traces, so refactoring the simulators or
// the generator cannot silently break the reproduction. Skipped under
// -short (it runs the full benchmark set through both machines).

import (
	"testing"

	"oovec/internal/experiments"
)

func reproSuite() *Suite {
	return NewSuite(SuiteOpts{Insns: 12000})
}

func TestReproductionFig5SpeedupBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full-set reproduction check")
	}
	res := experiments.Fig5(reproSuite())
	// Paper: 1.24–1.72 at 16 registers. Allow a generous band around it.
	for _, name := range res.Names {
		s := res.Speedup16[name][16]
		if s < 1.15 || s > 2.1 {
			t.Errorf("%s: speedup at 16 regs = %.2f outside [1.15, 2.1]", name, s)
		}
		// Diminishing returns past 16 registers.
		if gain := res.Speedup16[name][64] - s; gain > 0.25 {
			t.Errorf("%s: 16->64 regs gain %.2f too large", name, gain)
		}
		// 9 registers clearly worse than 16.
		if res.Speedup16[name][9] >= s {
			t.Errorf("%s: 9 regs not worse than 16", name)
		}
	}
}

func TestReproductionFig6TwoExceptions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-set reproduction check")
	}
	res := experiments.Fig6(reproSuite())
	// Paper: "for all but two of the benchmarks, the memory port is idle
	// less than 20% of the time".
	under := 0
	for _, name := range res.Names {
		if res.OOOIdle[name] < 20 {
			under++
		}
		if res.OOOIdle[name] >= res.RefIdle[name] {
			t.Errorf("%s: OOOVA idle not below REF", name)
		}
	}
	if under < 8 {
		t.Errorf("only %d of 10 programs under 20%% idle (paper: all but two)", under)
	}
}

func TestReproductionFig8Tolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-set reproduction check")
	}
	res := experiments.Fig8(reproSuite())
	// Paper: OOOVA flat to 100 cycles for most programs; trfd/dyfesm carry
	// a memory recurrence and may rise.
	flat := 0
	for _, name := range res.Names {
		if res.Degradation(name) < 0.08 {
			flat++
		}
	}
	if flat < 7 {
		t.Errorf("only %d of 10 programs tolerate latency (<8%% degradation)", flat)
	}
}

func TestReproductionFig9Outliers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-set reproduction check")
	}
	res := experiments.Fig9(reproSuite())
	// trfd and dyfesm must be the late-commit outliers (paper: 41%/47%).
	worstOther := 0.0
	for _, name := range res.Names {
		if name == "trfd" || name == "dyfesm" {
			continue
		}
		if d := res.Degradation16(name); d > worstOther {
			worstOther = d
		}
	}
	if res.Degradation16("trfd") <= worstOther {
		t.Errorf("trfd late cost %.2f not an outlier (worst other: %.2f)",
			res.Degradation16("trfd"), worstOther)
	}
}

func TestReproductionFig12Band(t *testing.T) {
	if testing.Short() {
		t.Skip("full-set reproduction check")
	}
	res := experiments.Fig12(reproSuite())
	// Paper: 32-reg SLE+VLE speedups typically 1.10–1.20, outliers higher.
	for _, name := range res.Names {
		s := res.Speedup[name][32]
		if s < 1.0 || s > 2.3 {
			t.Errorf("%s: SLE+VLE speedup %.3f outside [1.0, 2.3]", name, s)
		}
		if res.EliminatedLoads[name][32] == 0 {
			t.Errorf("%s: no eliminations", name)
		}
	}
	if res.Speedup["trfd"][32] < 1.2 {
		t.Errorf("trfd SLE+VLE %.3f should be a large outlier", res.Speedup["trfd"][32])
	}
}

func TestReproductionFig13Band(t *testing.T) {
	if testing.Short() {
		t.Skip("full-set reproduction check")
	}
	res := experiments.Fig13(reproSuite())
	// Paper: typical traffic reduction 15–20%, outliers to 40%.
	for _, name := range res.Names {
		r := res.SLEVLE[name]
		if r < 1.03 || r > 1.6 {
			t.Errorf("%s: SLE+VLE traffic ratio %.3f outside [1.03, 1.6]", name, r)
		}
	}
}
