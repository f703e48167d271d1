package engine

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

func TestMapRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		const n = 1000
		counts := make([]int32, n)
		Map(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	called := false
	Map(4, 0, func(int) { called = true })
	if called {
		t.Error("Map(_, 0, fn) called fn")
	}
}

func TestMapSerialOrder(t *testing.T) {
	var order []int
	Map(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial Map out of order: %v", order)
		}
	}
}

func TestMapDeterministicSlots(t *testing.T) {
	// Results written by index must be identical for any worker count.
	const n = 64
	want := make([]int, n)
	Map(1, n, func(i int) { want[i] = i * i })
	for _, workers := range []int{2, 4, 0} {
		got := make([]int, n)
		Map(workers, n, func(i int) { got[i] = i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	// Serial execution runs fn on the caller's goroutine: the panic value
	// propagates unwrapped, with its original stack intact.
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("workers=1: recovered %v, want \"boom\"", r)
			}
		}()
		Map(1, 100, func(i int) {
			if i == 17 {
				panic("boom")
			}
		})
		t.Error("workers=1: Map returned without panicking")
	}()

	// Parallel execution loses the worker goroutine, so the re-raised value
	// must carry the original value, index and worker stack.
	func() {
		defer func() {
			r := recover()
			wp, ok := r.(WorkerPanic)
			if !ok {
				t.Fatalf("workers=4: recovered %T (%v), want WorkerPanic", r, r)
			}
			if wp.Value != "boom" {
				t.Errorf("WorkerPanic.Value = %v, want \"boom\"", wp.Value)
			}
			if wp.Index != 17 {
				t.Errorf("WorkerPanic.Index = %d, want 17", wp.Index)
			}
			if !strings.Contains(string(wp.Stack), "TestMapPanicPropagates") {
				t.Errorf("WorkerPanic.Stack does not contain the panicking frame:\n%s", wp.Stack)
			}
			if wp.Unwrap() != "boom" {
				t.Errorf("WorkerPanic.Unwrap() = %v, want \"boom\"", wp.Unwrap())
			}
			if s := wp.String(); !strings.Contains(s, "boom") || !strings.Contains(s, "worker stack") {
				t.Errorf("WorkerPanic.String() missing value or stack: %q", s)
			}
		}()
		Map(4, 100, func(i int) {
			if i == 17 {
				panic("boom")
			}
		})
		t.Error("workers=4: Map returned without panicking")
	}()
}
