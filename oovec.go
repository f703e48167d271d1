// Package oovec is a library reproduction of "Out-of-Order Vector
// Architectures" (Roger Espasa, Mateo Valero, James E. Smith; MICRO-30,
// 1997): cycle-level simulators for an in-order Convex C3400-class vector
// machine (the paper's reference architecture) and for the OOOVA — the
// out-of-order, register-renaming vector architecture the paper proposes —
// together with a synthetic benchmark generator mirroring the paper's ten
// Perfect Club / Specfp92 traces and drivers that regenerate every table
// and figure of the evaluation.
//
// # Quick start
//
//	tr, _ := oovec.GenerateBenchmark("swm256")
//	ref := oovec.RunReference(tr, oovec.DefaultReferenceConfig())
//	ooo := oovec.RunOOOVA(tr, oovec.DefaultOOOVAConfig())
//	fmt.Printf("speedup: %.2f\n", oovec.Speedup(ref, ooo.Stats))
//
// Custom kernels are written with a TraceBuilder:
//
//	b := oovec.NewTraceBuilder("daxpy")
//	b.SetVL(64, oovec.A(0))
//	b.VLoad(oovec.V(0), 0x10000)
//	b.Vector(oovec.OpVSMul, oovec.V(1), oovec.V(0), oovec.S(0))
//	...
//	tr := b.Build()
//
// The paper's experiments are exposed through an experiment Suite. The
// suite fans its independent simulations across a worker pool
// (SuiteOpts.Parallelism: 0 = one worker per core, 1 = serial) with
// byte-identical output for every worker count:
//
//	s := oovec.NewSuite(oovec.SuiteOpts{})
//	out, _ := oovec.RunExperiment(s, "fig5")
//	fmt.Print(out)
//
// Beyond the library, the repository ships CLIs (cmd/ovbench, ovsweep,
// ovsim, ovtrace) and a simulation-as-a-service daemon (cmd/ovserve). See
// docs/ARCHITECTURE.md for the package map and caching data flow,
// and docs/API.md for the ovserve HTTP API.
package oovec

import (
	"fmt"
	"io"

	"oovec/internal/experiments"
	"oovec/internal/isa"
	"oovec/internal/metrics"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/rob"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// ---------------------------------------------------------------- ISA

// Register and instruction types of the simulated ISA.
type (
	// Reg names an architectural register.
	Reg = isa.Reg
	// RegClass names a register file (address, scalar, vector, mask); it
	// keys the rename tables a fault-injection result exposes.
	RegClass = isa.RegClass
	// Op is an operation code.
	Op = isa.Op
	// Instruction is one dynamic instruction.
	Instruction = isa.Instruction
)

// Register constructors.
var (
	// A returns the n-th scalar address register.
	A = isa.A
	// S returns the n-th scalar data register.
	S = isa.S
	// V returns the n-th vector register.
	V = isa.V
	// VM returns the vector mask register.
	VM = isa.VM
)

// MaxVL is the architectural maximum vector length (128 elements).
const MaxVL = isa.MaxVL

// Commonly used opcodes (the full set lives in the internal isa package;
// these cover the public builder API's needs).
const (
	OpVAdd   = isa.OpVAdd
	OpVMul   = isa.OpVMul
	OpVDiv   = isa.OpVDiv
	OpVSqrt  = isa.OpVSqrt
	OpVLogic = isa.OpVLogic
	OpVShift = isa.OpVShift
	OpVCmp   = isa.OpVCmp
	OpVMerge = isa.OpVMerge
	OpVSMul  = isa.OpVSMul
	OpVSAdd  = isa.OpVSAdd
	OpAAdd   = isa.OpAAdd
	OpAMul   = isa.OpAMul
	OpSAdd   = isa.OpSAdd
	OpSMul   = isa.OpSMul
	OpSDiv   = isa.OpSDiv
	OpSLoad  = isa.OpSLoad
	OpSStore = isa.OpSStore
	OpALoad  = isa.OpALoad
	OpAStore = isa.OpAStore
)

// ---------------------------------------------------------------- traces

// Trace is a dynamic instruction trace.
type Trace = trace.Trace

// TraceBuilder constructs traces programmatically.
type TraceBuilder = trace.Builder

// TraceStats are per-trace statistics (Table 2 / Table 3 columns).
type TraceStats = trace.Stats

// NewTraceBuilder returns a builder for a custom kernel trace.
func NewTraceBuilder(name string) *TraceBuilder { return trace.NewBuilder(name) }

// WriteTrace and ReadTrace (de)serialise traces in the compact binary
// format.
var (
	WriteTrace = trace.Write
	ReadTrace  = trace.Read
)

// TraceLimits bound what ReadTraceLimited will decode from untrusted input.
type TraceLimits = trace.Limits

// ReadTraceLimited deserialises a trace with explicit decode bounds (the
// ovserve upload path uses this; ReadTrace applies generous defaults).
func ReadTraceLimited(r io.Reader, lim TraceLimits) (*Trace, error) {
	return trace.ReadLimited(r, lim)
}

// TraceDigest returns the content hash of a trace's canonical binary form —
// the content address the ovserve result cache keys uploaded traces by.
func TraceDigest(t *Trace) string { return trace.Digest(t) }

// ---------------------------------------------------------------- benchmarks

// BenchmarkPreset describes one synthetic benchmark.
type BenchmarkPreset = tgen.Preset

// Benchmarks returns the ten benchmark names in the paper's Table 2 order.
func Benchmarks() []string { return tgen.Names() }

// BenchmarkPresetByName returns the preset for a benchmark name.
func BenchmarkPresetByName(name string) (BenchmarkPreset, bool) {
	return tgen.PresetByName(name)
}

// GenerateBenchmark generates the synthetic trace for one of the paper's
// ten benchmarks.
func GenerateBenchmark(name string) (*Trace, error) {
	p, ok := tgen.PresetByName(name)
	if !ok {
		return nil, fmt.Errorf("oovec: unknown benchmark %q (have %v)", name, tgen.Names())
	}
	return tgen.Generate(p), nil
}

// GeneratePreset generates a trace from a (possibly customised) preset.
func GeneratePreset(p BenchmarkPreset) *Trace { return tgen.Generate(p) }

// ---------------------------------------------------------------- machines

// ReferenceConfig parameterises the in-order reference machine.
type ReferenceConfig = refsim.Config

// OOOVAConfig parameterises the out-of-order machine.
type OOOVAConfig = ooosim.Config

// OOOVAResult is the result of an OOOVA run (stats plus rename state).
type OOOVAResult = ooosim.Result

// FaultResult describes a §5 precise-trap experiment.
type FaultResult = ooosim.FaultResult

// RunStats are the measurements of one simulation run.
type RunStats = metrics.RunStats

// StateBreakdown is the (FU2, FU1, MEM) occupancy histogram of Figures 3/7.
type StateBreakdown = metrics.Breakdown

// StallBreakdown attributes a run's stall cycles to their causes (ROB
// full, queue full per class, no free physical register per class, vector
// register-file port conflicts, memory bus busy). Part of RunStats.
type StallBreakdown = metrics.StallBreakdown

// OccupancyHist is a fixed-bucket histogram of one structure's occupancy,
// sampled once per instruction at decode. Part of RunStats.
type OccupancyHist = metrics.OccHist

// OccupancyStats groups the per-structure occupancy histograms (ROB and
// the four instruction queues).
type OccupancyStats = metrics.Occupancy

// StateBreakdownName renders state index s (0..7) in the paper's tuple
// notation, e.g. "<FU2,FU1,MEM>".
func StateBreakdownName(s int) string { return metrics.State(s).String() }

// CommitPolicy selects the early (§2.2) or late (§5) commit model.
type CommitPolicy = rob.Policy

// Commit policies.
const (
	CommitEarly = rob.PolicyEarly
	CommitLate  = rob.PolicyLate
)

// ElimMode selects the §6 dynamic load elimination configuration.
type ElimMode = ooosim.ElimMode

// Load-elimination modes.
const (
	ElimNone   = ooosim.ElimNone
	ElimSLE    = ooosim.ElimSLE
	ElimSLEVLE = ooosim.ElimSLEVLE
)

// DefaultReferenceConfig returns the paper's reference configuration
// (50-cycle memory).
func DefaultReferenceConfig() ReferenceConfig { return refsim.DefaultConfig() }

// DefaultOOOVAConfig returns the paper's headline OOOVA configuration
// (16 physical vector registers, 16-slot queues, 64-entry ROB, 4-wide
// commit, 50-cycle memory, early commit).
func DefaultOOOVAConfig() OOOVAConfig { return ooosim.DefaultConfig() }

// RunReference simulates a trace on the in-order reference machine.
func RunReference(t *Trace, cfg ReferenceConfig) *RunStats {
	return refsim.Run(t, cfg)
}

// RunOOOVA simulates a trace on the out-of-order renaming machine.
func RunOOOVA(t *Trace, cfg OOOVAConfig) *OOOVAResult {
	return ooosim.Run(t, cfg)
}

// RunOOOVAWithFault simulates with a precise exception injected at the
// given instruction index and returns the recovered precise state (§5).
func RunOOOVAWithFault(t *Trace, cfg OOOVAConfig, faultIdx int) (*FaultResult, error) {
	return ooosim.RunWithFault(t, cfg, faultIdx)
}

// ---------------------------------------------------------------- metrics

// Speedup returns base.Cycles / run.Cycles.
func Speedup(base, run *RunStats) float64 { return metrics.Speedup(base, run) }

// TrafficReduction returns base requests / run requests (Figure 13).
func TrafficReduction(base, run *RunStats) float64 {
	return metrics.TrafficReduction(base, run)
}

// IdealCycles returns the paper's IDEAL lower bound for a trace: the work
// of the most heavily used vector unit with all dependences removed.
func IdealCycles(t *Trace) int64 { return metrics.IdealCycles(t) }

// IdealSpeedup returns the IDEAL speedup line of Figures 5/8/9.
func IdealSpeedup(refCycles int64, t *Trace) float64 {
	return metrics.IdealSpeedup(refCycles, t)
}

// ---------------------------------------------------------------- experiments

// Suite caches traces and runs across experiments.
type Suite = experiments.Suite

// SuiteOpts configures a Suite.
type SuiteOpts = experiments.Opts

// NewSuite builds an experiment suite.
func NewSuite(opts SuiteOpts) *Suite { return experiments.NewSuite(opts) }

// Experiments lists the regenerable tables and figures.
func Experiments() []string {
	return append([]string(nil), experiments.AllExperiments...)
}

// RunExperiment regenerates one table or figure by name ("table2", "fig5",
// ...) and returns its rendered text.
func RunExperiment(s *Suite, name string) (string, error) {
	return experiments.Run(s, name)
}

// PlotExperiment renders a text chart of one figure ("fig3".."fig13").
// Tables have no chart form and return an error.
func PlotExperiment(s *Suite, name string) (string, error) {
	return experiments.Plot(s, name)
}
