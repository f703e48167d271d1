// Package sim exercises the ctxabort loop check on a shared, generic run
// loop: models are stepped through an interface method, which counts as
// simulation work, so a loop that never polls the opts-carried context is
// a diagnostic.
package sim

import "context"

// Model is stepped by the loops below.
type Model[C any] interface {
	Step(i int)
	Snapshot(next int) C
}

// Opts carries the context the way the real sim.Opts does.
type Opts[C any] struct {
	Ctx context.Context
}

// Run polls the context between steps: no diagnostic.
func Run[C any](m Model[C], n int, opts Opts[C]) (C, error) {
	var none C
	for i := 0; i < n; i++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return m.Snapshot(i), err
			}
		}
		m.Step(i)
	}
	return none, nil
}

// RunUnpolled has the context in scope but lost its poll.
func RunUnpolled[C any](m Model[C], n int, opts Opts[C]) C {
	for i := 0; i < n; i++ { // want `never checks the context available to RunUnpolled`
		m.Step(i)
	}
	return m.Snapshot(n)
}
