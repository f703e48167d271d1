package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapCtxSerialCancelBetweenTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := MapCtx(ctx, 1, 10, func(i int) {
		ran++
		if ran == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The cancelling task finishes (cancellation is between tasks), but no
	// further index is dispatched.
	if ran != 3 {
		t.Errorf("ran %d tasks after cancel at task 3, want exactly 3", ran)
	}
}

func TestMapCtxParallelCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 1000
	var ran atomic.Int64
	var once sync.Once
	err := MapCtx(ctx, 4, n, func(i int) {
		ran.Add(1)
		once.Do(cancel)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// In-flight tasks (at most one per worker) drain; the rest of the grid
	// is never dispatched.
	if got := ran.Load(); got >= n {
		t.Errorf("all %d tasks ran despite cancellation", got)
	}
}

func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := MapCtx(ctx, 4, 100, func(i int) { called = true })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("fn ran on a pre-cancelled context")
	}
}

func TestMapCtxCompletedGridReportsNil(t *testing.T) {
	// A ctx that fires only after the last task finished changed nothing and
	// must not surface as an error.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := MapCtx(ctx, 3, 50, func(i int) { ran.Add(1) })
	cancel()
	if err != nil {
		t.Errorf("err = %v, want nil for a grid that completed before cancel", err)
	}
	if ran.Load() != 50 {
		t.Errorf("ran %d tasks, want 50", ran.Load())
	}
}

func TestMapCtxNilContext(t *testing.T) {
	var ran atomic.Int64
	if err := MapCtx(nil, 2, 10, func(i int) { ran.Add(1) }); err != nil {
		t.Errorf("err = %v, want nil", err)
	}
	if ran.Load() != 10 {
		t.Errorf("ran %d tasks, want 10", ran.Load())
	}
}
