package sweep

import (
	"errors"
	"fmt"

	"oovec/internal/cli"
	"oovec/internal/isa"
	"oovec/internal/ooosim"
	"oovec/internal/simcache"
	"oovec/internal/tgen"
)

// Spec is a grid request: the one parameter surface behind the ovsweep CLI
// and the ovserve /v1/sweep endpoint. A surface only translates its own
// syntax (flags, JSON) into a Spec; Resolve decides what is valid and Run
// what runs in which order, so the two surfaces cannot drift apart.
type Spec struct {
	// Bench lists benchmark preset names; every point of the grid runs on
	// every benchmark, in this order.
	Bench []string `json:"bench"`
	// Machine selects the grid: "ooo" (default), "ref" or "both".
	Machine string `json:"machine,omitempty"`
	// Regs are the physical vector register counts of the OOOVA grid
	// (default 9,12,16,32,64).
	Regs []int `json:"regs,omitempty"`
	// Lats are the memory latencies (default 1,50,100).
	Lats []int64 `json:"lats,omitempty"`
	// Commit and Elim fix the OOOVA commit policy and load-elimination mode
	// for the whole grid ("early"/"late", "none"/"sle"/"sle+vle").
	Commit string `json:"commit,omitempty"`
	Elim   string `json:"elim,omitempty"`
	// Insns overrides the per-benchmark instruction budget (0 keeps each
	// preset's own).
	Insns int `json:"insns,omitempty"`
}

var (
	defaultRegs = []int{9, 12, 16, 32, 64}
	defaultLats = []int64{1, 50, 100}
)

// plan is a resolved Spec: the presets to generate and the grids to run
// on each.
type plan struct {
	presets  []tgen.Preset
	ref, ooo bool
	base     ooosim.Config
	regs     []int
	lats     []int64
}

// Resolve checks the spec without running anything and returns the error
// Run would fail with, so a surface can refuse a bad grid before it
// commits to a response.
func (s Spec) Resolve() error {
	_, err := s.resolve()
	return err
}

func (s Spec) resolve() (plan, error) {
	p := plan{regs: s.Regs, lats: s.Lats}
	if len(s.Bench) == 0 {
		return p, errors.New("bench is required")
	}
	switch s.Machine {
	case "", "ooo":
		p.ooo = true
	case "ref":
		p.ref = true
	case "both":
		p.ref, p.ooo = true, true
	default:
		return p, fmt.Errorf("unknown machine %q (ref | ooo | both)", s.Machine)
	}
	if len(p.regs) == 0 {
		p.regs = defaultRegs
	}
	if len(p.lats) == 0 {
		p.lats = defaultLats
	}
	if p.ooo { // regs only drive the OOOVA grid
		for _, r := range p.regs {
			if r <= isa.NumLogicalV {
				return p, fmt.Errorf("regs %d: the OOOVA needs more than %d physical vector registers (one per architectural register plus at least one for renaming)", r, isa.NumLogicalV)
			}
			if r > cli.MaxStructure {
				return p, fmt.Errorf("regs %d: at most %d physical vector registers", r, cli.MaxStructure)
			}
		}
	}
	for _, l := range p.lats {
		if l <= 0 {
			return p, fmt.Errorf("lats values must be positive, got %d", l)
		}
	}
	if s.Insns < 0 {
		return p, errors.New("insns must be non-negative")
	}
	var err error
	p.base = ooosim.DefaultConfig()
	if p.base.Commit, err = cli.ParseCommit(s.Commit); err != nil {
		return p, err
	}
	if p.base.LoadElim, err = cli.ParseElim(s.Elim); err != nil {
		return p, err
	}
	// Every preset resolves before the first simulation: an unknown name
	// must not surface half-way through a streamed grid.
	for _, name := range s.Bench {
		pr, ok := tgen.PresetByName(name)
		if !ok {
			return p, fmt.Errorf("unknown benchmark %q", name)
		}
		if s.Insns > 0 {
			pr.Insns = s.Insns
		}
		p.presets = append(p.presets, pr)
	}
	return p, nil
}

// Run resolves the spec and runs its grids under o: per benchmark, the REF
// grid first, then the OOOVA grid, each handed to emit once complete. The
// rows therefore come in one order for every surface and worker count —
// benchmarks in spec order, latencies inner, registers outer. o.TraceKey
// is set per benchmark. Run stops at the first error: an invalid spec
// (before any simulation), a cancelled o.Ctx, or an error returned by emit.
func Run(s Spec, o Opts, emit func([]Point) error) error {
	p, err := s.resolve()
	if err != nil {
		return err
	}
	for _, pr := range p.presets {
		// A cancelled run stops before generating the next trace.
		if o.Ctx != nil && o.Ctx.Err() != nil {
			return o.Ctx.Err()
		}
		// The shared trace cache generates each (preset, insns) trace once
		// per process, whichever surface asks first.
		tr := simcache.GenerateTrace(pr)
		o.TraceKey = simcache.PresetKey(pr)
		if p.ref {
			pts, err := refGrid(tr, p.lats, o)
			if err == nil {
				err = emit(pts)
			}
			if err != nil {
				return err
			}
		}
		if p.ooo {
			pts, err := oooGrid(tr, p.base, p.regs, p.lats, o)
			if err == nil {
				err = emit(pts)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
