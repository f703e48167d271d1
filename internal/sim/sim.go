// Package sim owns what every machine model shares: the instruction loop
// that drives a model over a trace — with its abort checks, progress
// reports and periodic checkpoints — the options that configure it, and the
// machine pool the server checks machines out of.
//
// A machine model (ooosim's OOOVA, refsim's in-order reference machine)
// implements Model on its internal state and exposes sim.Run through its
// public Machine type. Adding a model means writing one package with those
// four methods and a checkpoint type; the loop, cancellation, resume
// validation and pooling come from here.
package sim

import (
	"context"
	"fmt"
	"sync"

	"oovec/internal/isa"
	"oovec/internal/trace"
)

// DefaultCheckEvery is the abort-check granularity of Run: the context is
// polled once per this many instructions, bounding cancellation latency to
// the time those instructions take (microseconds) while keeping the
// per-instruction overhead of an uncancelled run unmeasurable.
const DefaultCheckEvery = 2048

// Checkpoint constrains a model's checkpoint handle: a pointer (nil means
// "no checkpoint") to a state snapshot that reports where it was taken.
type Checkpoint interface {
	comparable
	// Position returns the index of the first instruction not yet
	// simulated and the length of the trace the checkpoint was taken on.
	Position() (next, traceLen int)
}

// Model is one machine model as Run drives it. C is its checkpoint handle,
// R its result.
type Model[C Checkpoint, R any] interface {
	// Begin readies the model for a run over t: it restores the power-on
	// state, then resume unless it is nil, and sizes its buffers from the
	// trace. A checkpoint that does not fit the model's configuration is an
	// error.
	Begin(t *trace.Trace, resume C) error
	// Step simulates instruction i of the trace.
	Step(i int, in *isa.Instruction)
	// Snapshot captures the complete state at instruction boundary next of
	// a traceLen-instruction trace. It shares no state with the model.
	Snapshot(next, traceLen int) C
	// Finish assembles the result of the run.
	Finish(t *trace.Trace) R
}

// Opts configures a cancellable, checkpointable run. The zero value runs
// the whole trace from instruction zero.
type Opts[C Checkpoint] struct {
	// Ctx, when non-nil, cancels the run mid-trace: Run polls it every
	// CheckEvery instructions and, on cancellation, returns a checkpoint of
	// the current instruction boundary along with ctx's error.
	Ctx context.Context
	// CheckEvery is the abort-check/progress granularity in instructions
	// (<= 0 selects DefaultCheckEvery).
	CheckEvery int
	// CheckpointEvery, when > 0, invokes OnCheckpoint at every multiple of
	// this many instructions, so a killed (not just canceled) process loses
	// at most this much progress.
	CheckpointEvery int
	// OnCheckpoint receives the periodic checkpoints. Called synchronously
	// on the simulating goroutine; the checkpoint shares no state with the
	// model and may be retained or serialised freely.
	OnCheckpoint func(C)
	// OnProgress, when non-nil, is called with the number of instructions
	// simulated so far, at CheckEvery granularity.
	OnProgress func(done int)
	// Resume, when non-nil, restores this checkpoint instead of starting
	// from instruction zero. It must have been taken under the same
	// configuration and trace.
	Resume C
}

// Run simulates the trace on m. On completion it returns (result, nil,
// nil). On cancellation it returns (zero, checkpoint, ctx error): the
// checkpoint captures the exact boundary the run stopped at, so a later Run
// with Resume set continues — on this model or any other reset to the same
// configuration — and its final result is byte-identical to an
// uninterrupted run's. A checkpoint that does not fit the trace or the
// model is rejected with an error before any instruction runs.
//
//ovlint:hotpath the shared instruction loop of every machine model; any allocation here multiplies by trace length
func Run[C Checkpoint, R any](m Model[C, R], t *trace.Trace, opts Opts[C]) (R, C, error) {
	var none C
	start, err := begin(m, t, opts.Resume)
	if err != nil {
		var r R
		return r, none, err
	}
	check := opts.CheckEvery
	if check <= 0 {
		check = DefaultCheckEvery
	}
	// The abort checks and checkpoints fall on the multiples of their
	// cadence after start. Counting down to the next one keeps an integer
	// division out of the per-instruction path.
	n := t.Len()
	nextCheck := (start/check + 1) * check
	nextCk := n
	if opts.CheckpointEvery > 0 && opts.OnCheckpoint != nil {
		nextCk = (start/opts.CheckpointEvery + 1) * opts.CheckpointEvery
	}
	for i := start; i < n; i++ {
		if i == nextCheck {
			nextCheck += check
			if opts.OnProgress != nil {
				opts.OnProgress(i)
			}
			if opts.Ctx != nil {
				if err := opts.Ctx.Err(); err != nil {
					var r R
					return r, m.Snapshot(i, n), err
				}
			}
		}
		if i == nextCk {
			nextCk += opts.CheckpointEvery
			opts.OnCheckpoint(m.Snapshot(i, n))
		}
		m.Step(i, &t.Insns[i])
	}
	return m.Finish(t), none, nil
}

// begin validates resume against the trace, then readies the model. It
// returns the first instruction to simulate.
//
//ovlint:coldpath once per run, amortised over the whole trace
func begin[C Checkpoint, R any](m Model[C, R], t *trace.Trace, resume C) (int, error) {
	var none C
	start := 0
	if resume != none {
		next, traceLen := resume.Position()
		if traceLen != t.Len() {
			return 0, fmt.Errorf("sim: checkpoint is for a %d-instruction trace, got %d", traceLen, t.Len())
		}
		if next < 0 || next > traceLen {
			return 0, fmt.Errorf("sim: checkpoint resumes at instruction %d, outside [0, %d]", next, traceLen)
		}
		start = next
	}
	return start, m.Begin(t, resume)
}

// Pool recycles machines across concurrent borrowers — the checkout/checkin
// primitive the ovserve request handlers use, so a long-lived server
// amortises machine construction across requests the way the experiment
// drivers amortise it across a grid. Machines stay single-goroutine
// objects; the pool hands each one to one borrower at a time.
type Pool[Cfg any, M interface{ Reset(Cfg) }] struct {
	// New builds a machine when the pool is empty.
	New func(Cfg) M

	p sync.Pool
}

// Get checks out a machine reset to cfg, building one if the pool is empty.
// Return it with Put when the run is finished.
func (p *Pool[Cfg, M]) Get(cfg Cfg) M {
	if m, ok := p.p.Get().(M); ok {
		m.Reset(cfg)
		return m
	}
	return p.New(cfg)
}

// Put checks a machine back in for a later Get to reuse.
func (p *Pool[Cfg, M]) Put(m M) { p.p.Put(m) }
