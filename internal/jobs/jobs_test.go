package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, m *Manager, id string, want ...State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		for _, w := range want {
			if s.State == w {
				return s
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want one of %v", id, s.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := New(2, 8)
	defer m.Close()
	var ran atomic.Int64
	id, err := m.Submit(func(ctx context.Context, j *Job) error {
		j.SetTotal(100)
		j.SetProgress(100)
		ran.Add(1)
		return nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := waitState(t, m, id, StateDone)
	if ran.Load() != 1 || s.Done != 100 || s.Total != 100 {
		t.Fatalf("snapshot %+v, ran=%d", s, ran.Load())
	}
	if s.StartedAt.IsZero() || s.FinishedAt.IsZero() {
		t.Fatalf("timestamps missing: %+v", s)
	}
}

func TestPriorityOrderAndFIFOWithinPriority(t *testing.T) {
	m := New(1, 16)
	defer m.Close()
	// Block the single worker so submissions queue up.
	release := make(chan struct{})
	gate, _ := m.Submit(func(ctx context.Context, j *Job) error { <-release; return nil }, 0)
	waitState(t, m, gate, StateRunning)

	var order []string
	done := make(chan string, 4)
	mk := func(name string) RunFunc {
		return func(ctx context.Context, j *Job) error { done <- name; return nil }
	}
	m.Submit(mk("low-1"), 1)
	m.Submit(mk("high"), 5)
	m.Submit(mk("low-2"), 1)
	m.Submit(mk("zero"), 0)
	close(release)
	for i := 0; i < 4; i++ {
		order = append(order, <-done)
	}
	want := []string{"high", "low-1", "low-2", "zero"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

func TestQueueFullSheds(t *testing.T) {
	m := New(1, 2)
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	gate, _ := m.Submit(func(ctx context.Context, j *Job) error { <-release; return nil }, 0)
	waitState(t, m, gate, StateRunning)

	idle := func(ctx context.Context, j *Job) error { return nil }
	if _, err := m.Submit(idle, 0); err != nil {
		t.Fatalf("first queued submit failed: %v", err)
	}
	if _, err := m.Submit(idle, 0); err != nil {
		t.Fatalf("second queued submit failed: %v", err)
	}
	if _, err := m.Submit(idle, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit err = %v, want ErrQueueFull", err)
	}
	if mt := m.Metrics(); mt.Shed != 1 {
		t.Fatalf("shed = %d, want 1", mt.Shed)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	m := New(1, 8)
	defer m.Close()
	release := make(chan struct{})
	gate, _ := m.Submit(func(ctx context.Context, j *Job) error { <-release; return nil }, 0)
	waitState(t, m, gate, StateRunning)

	queued, _ := m.Submit(func(ctx context.Context, j *Job) error { return nil }, 0)
	if err := m.Cancel(queued); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if s, _ := m.Get(queued); s.State != StateCanceled {
		t.Fatalf("queued job state %s after cancel", s.State)
	}
	if err := m.Cancel(queued); !errors.Is(err, ErrFinished) {
		t.Fatalf("re-cancel err = %v, want ErrFinished", err)
	}
	if err := m.Cancel("no-such-id"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown err = %v, want ErrNotFound", err)
	}

	// Cancel the running job: its context must fire and it must land in
	// canceled even though the run function returns ctx.Err().
	running, _ := m.Submit(func(ctx context.Context, j *Job) error {
		<-ctx.Done()
		return ctx.Err()
	}, 9)
	close(release)
	waitState(t, m, running, StateRunning)
	if err := m.Cancel(running); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitState(t, m, running, StateCanceled)
}

func TestFailureState(t *testing.T) {
	m := New(1, 8)
	defer m.Close()
	boom := errors.New("trace unreadable")
	id, _ := m.Submit(func(ctx context.Context, j *Job) error { return boom }, 0)
	s := waitState(t, m, id, StateFailed)
	if s.Error != boom.Error() {
		t.Fatalf("error %q, want %q", s.Error, boom)
	}
}

// TestInteractivePreemptsAndParks is the preemption contract: a running job
// is canceled with cause ErrPreempted when interactive traffic begins, is
// re-queued (not canceled), and resumes after EndInteractive.
func TestInteractivePreemptsAndParks(t *testing.T) {
	m := New(1, 8)
	defer m.Close()

	var runs atomic.Int64
	started := make(chan struct{}, 4)
	id, _ := m.Submit(func(ctx context.Context, j *Job) error {
		runs.Add(1)
		started <- struct{}{}
		select {
		case <-ctx.Done():
			// A real run func checkpoints here, then reports the cause.
			return context.Cause(ctx)
		case <-time.After(10 * time.Second):
			return nil
		}
	}, 0)
	<-started

	m.BeginInteractive()
	s := waitState(t, m, id, StateQueued)
	if s.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", s.Preemptions)
	}
	// While interactive, the worker must not restart it.
	time.Sleep(20 * time.Millisecond)
	if s, _ := m.Get(id); s.State != StateQueued {
		t.Fatalf("job restarted during interactive window (state %s)", s.State)
	}
	m.EndInteractive()
	<-started // second run segment
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want 2 (original + resume)", runs.Load())
	}
	if mt := m.Metrics(); mt.Preempted != 1 {
		t.Fatalf("preempted metric = %d, want 1", mt.Preempted)
	}
	m.Cancel(id)
	waitState(t, m, id, StateCanceled)
}

// TestCancelDuringInteractiveWinsOverParking: a user cancel must stick even
// if it races the preemption window — the job must not be parked and
// silently resumed.
func TestCancelDuringInteractiveWinsOverParking(t *testing.T) {
	m := New(1, 8)
	defer m.Close()
	started := make(chan struct{}, 2)
	id, _ := m.Submit(func(ctx context.Context, j *Job) error {
		started <- struct{}{}
		<-ctx.Done()
		return context.Cause(ctx)
	}, 0)
	<-started
	m.BeginInteractive()
	if err := m.Cancel(id); err != nil && !errors.Is(err, ErrFinished) {
		t.Fatalf("cancel: %v", err)
	}
	m.EndInteractive()
	s := waitState(t, m, id, StateCanceled)
	if s.State != StateCanceled {
		t.Fatalf("state %s, want canceled", s.State)
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	m := New(1, 8)
	started := make(chan struct{}, 1)
	var sawShutdown atomic.Bool
	running, _ := m.Submit(func(ctx context.Context, j *Job) error {
		started <- struct{}{}
		<-ctx.Done()
		sawShutdown.Store(errors.Is(context.Cause(ctx), ErrShutdown))
		return context.Cause(ctx)
	}, 0)
	<-started
	queued, _ := m.Submit(func(ctx context.Context, j *Job) error { return nil }, 0)
	m.Close()

	if !sawShutdown.Load() {
		t.Fatal("running job did not observe ErrShutdown cause")
	}
	for _, id := range []string{running, queued} {
		if s, _ := m.Get(id); s.State != StateCanceled {
			t.Fatalf("job %s state %s after Close, want canceled", id, s.State)
		}
	}
	if _, err := m.Submit(func(ctx context.Context, j *Job) error { return nil }, 0); !errors.Is(err, ErrShutdown) {
		t.Fatalf("submit after close err = %v, want ErrShutdown", err)
	}
}

func TestMetricsCounts(t *testing.T) {
	m := New(2, 8)
	defer m.Close()
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		id, err := m.Submit(func(ctx context.Context, j *Job) error { return nil }, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}
	mt := m.Metrics()
	if mt.Submitted != 3 || mt.Done != 3 || mt.Queued != 0 || mt.Running != 0 {
		t.Fatalf("metrics %+v", mt)
	}
}

// TestPanickingJobFailsAndWorkerSurvives runs a job that panics on the
// manager's only worker: the job must finish failed with the panic value
// and its stack in the error, and the same worker must go on to complete
// the next job.
func TestPanickingJobFailsAndWorkerSurvives(t *testing.T) {
	m := New(1, 8)
	defer m.Close()
	bad, err := m.Submit(func(ctx context.Context, j *Job) error { panic("simulator blew up") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := waitState(t, m, bad, StateFailed, StateDone, StateCanceled)
	if s.State != StateFailed {
		t.Fatalf("panicking job ended %s, want %s", s.State, StateFailed)
	}
	if !strings.Contains(s.Error, "simulator blew up") || !strings.Contains(s.Error, "goroutine") {
		t.Errorf("error %q lacks the panic value or its stack", s.Error)
	}
	good, err := m.Submit(func(ctx context.Context, j *Job) error { return nil }, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, good, StateDone)
	mt := m.Metrics()
	if mt.Panicked != 1 || mt.Failed != 1 || mt.Done != 1 || mt.Running != 0 {
		t.Errorf("metrics %+v, want panicked 1, failed 1, done 1, running 0", mt)
	}
}
