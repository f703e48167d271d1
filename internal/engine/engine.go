// Package engine provides the worker-pool primitive that fans the
// repository's embarrassingly parallel simulation workloads — experiment
// drivers (Tables 2–3, Figures 3–13), parameter-grid sweeps — across CPU
// cores.
//
// The design keeps determinism trivial: Map runs fn(i) for every index of a
// task list, and callers make fn(i) write its result into slot i of a
// preallocated slice. Assembly of the final output then happens serially in
// index order, so rendered tables, figures and CSV files are byte-identical
// to a serial run regardless of worker count or scheduling.
//
// Tasks share immutable inputs (generated traces are never mutated by the
// simulators) and must not write shared state without synchronisation;
// caches shared between tasks (the experiment Suite's trace and
// reference-run caches) serialise internally.
//
// Tasks carry no per-worker state: a task that needs a simulator machine
// builds one for its run and drops it (machine state is fixed-size, so
// construction is cheap beside the run). MapCtx adds
// cooperative cancellation between tasks, which is what lets a server
// abandon a grid whose client has disconnected instead of burning workers
// on results nobody will read.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a -j style parallelism request: values <= 0 select
// runtime.GOMAXPROCS(0) (one worker per available core); anything else is
// returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// WorkerPanic is the value Map and MapCtx re-raise on the caller's
// goroutine when a task panicked on a worker goroutine. Re-raising a
// recovered value loses the goroutine it was recovered on, so the original
// worker stack is captured at recover time and carried along — without it,
// failures inside fanned-out simulations point at Map's wg.Wait instead of
// the simulator line that blew up.
//
// Serial execution (one worker) calls fn on the caller's goroutine and lets
// panics propagate natively, so a WorkerPanic is only seen for workers > 1.
type WorkerPanic struct {
	// Value is the original panic value.
	Value any
	// Index is the task index whose fn panicked.
	Index int
	// Stack is the worker goroutine's stack (debug.Stack) at recover time,
	// including the frames that led to the panic.
	Stack []byte
}

// String renders the original value followed by the captured worker stack;
// the runtime prints it when the re-raised panic goes unrecovered.
func (p WorkerPanic) String() string {
	return fmt.Sprintf("%v\n\n[engine] original worker stack:\n%s", p.Value, p.Stack)
}

// Unwrap returns the original panic value.
func (p WorkerPanic) Unwrap() any { return p.Value }

// Map runs fn(i) for every i in [0, n), using at most `workers` concurrent
// goroutines (workers <= 0 selects one per core). Indices are claimed from
// a shared counter, so long and short tasks balance automatically. Map
// returns when every call has finished.
//
// With one worker (serial execution) fn runs on the caller's goroutine and
// panics propagate natively. With more, a panic inside fn stops the
// dispatch of further indices and is re-raised on the caller's goroutine
// once in-flight tasks have drained, wrapped in a WorkerPanic that
// preserves the original worker stack.
func Map(workers, n int, fn func(i int)) {
	MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map with cooperative cancellation: once ctx is done, no further
// index is dispatched and MapCtx returns ctx's error after in-flight fn
// calls finish. Tasks already running are never interrupted — cancellation
// is checked between tasks, the natural grain when each task is one whole
// simulation — so some slots of the caller's result slice may be filled and
// others not; a non-nil return means the results are incomplete and must be
// discarded.
//
// A nil ctx is accepted and means "never cancelled". Panics propagate as in
// Map, taking precedence over a concurrent cancellation.
func MapCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}

	var (
		next      atomic.Int64
		completed atomic.Int64
		wg        sync.WaitGroup
		panicked  atomic.Bool
		panicVal  any // written once under the panicked CAS; read after Wait
	)
	worker := func() {
		defer wg.Done()
		for {
			i := next.Add(1) - 1
			if i >= int64(n) || panicked.Load() || ctx.Err() != nil {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						if panicked.CompareAndSwap(false, true) {
							panicVal = WorkerPanic{Value: r, Index: int(i), Stack: debug.Stack()}
						}
					}
				}()
				fn(int(i))
				completed.Add(1)
			}()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	// Only report cancellation when it actually cut the grid short: a ctx
	// that fires after the last task finished changed nothing.
	if completed.Load() < int64(n) {
		return ctx.Err()
	}
	return nil
}
