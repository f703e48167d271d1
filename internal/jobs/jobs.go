// Package jobs is the transport-independent asynchronous job layer behind
// ovserve's /v1/jobs API: a bounded priority queue feeding a small worker
// pool, with cycle-granular cancellation and checkpoint-aware preemption.
//
// The problem it solves: a million-instruction simulation occupies a worker
// for seconds to minutes. Run synchronously inside an HTTP handler, such a
// request either times out or starves the interactive /v1/sim traffic the
// server exists to answer quickly. The job layer moves long runs out of the
// request path — submit returns immediately with an id, progress is polled,
// cancellation is explicit — and enforces two robustness policies:
//
//   - Load shedding: the queue is bounded. When it is full, Submit fails
//     with ErrQueueFull and the transport layer turns that into a 503 with
//     Retry-After, instead of queueing unbounded work it cannot finish.
//   - Preemption: while interactive traffic is in flight (BeginInteractive/
//     EndInteractive bracket it), workers start no new batch jobs, and the
//     transition into the interactive state preempts running jobs with
//     cause ErrPreempted. A preempted run checkpoints its machine state
//     (see sim.Run, the loop behind both machines' RunCheckpointed) and
//     is parked back in the queue; when the interactive burst passes, it
//     resumes from the checkpoint rather than from instruction zero.
//
// The package knows nothing about HTTP or simulators: a job is a RunFunc
// plus bookkeeping. The run function owns interpreting cancellation causes
// — it distinguishes a user cancel (persist the checkpoint for a later
// restart) from preemption (park and resume soon) via context.Cause.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oovec/internal/span"
)

// Sentinel causes and errors. ErrPreempted and ErrShutdown are delivered as
// cancellation causes (context.Cause) to running jobs; RunFuncs return the
// cause (or the plain context error) after checkpointing.
var (
	// ErrQueueFull is returned by Submit when the queue is at capacity —
	// the load-shedding signal.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrPreempted is the cancellation cause when a running job is being
	// parked to make room for interactive traffic. The manager re-enqueues
	// a job whose run returns with this cause.
	ErrPreempted = errors.New("jobs: preempted by interactive traffic")
	// ErrShutdown is the cancellation cause during manager Close; the job
	// is marked canceled after its run function checkpoints and returns.
	ErrShutdown = errors.New("jobs: manager shutting down")
	// ErrNotFound is returned by Get/Cancel for an unknown job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished is returned by Cancel when the job already reached a
	// terminal state.
	ErrFinished = errors.New("jobs: job already finished")
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// RunFunc performs a job's work. It must return promptly once ctx is
// canceled, checkpointing first if the work supports it; the error it
// returns selects the terminal state: nil → done, the cancellation
// cause/context error → canceled or re-queued (preemption), anything else
// → failed. It may be invoked multiple times for one job (once per
// preemption), so it must be restartable — which is exactly what the
// checkpoint/resume contract provides.
type RunFunc func(ctx context.Context, j *Job) error

// Job is one unit of asynchronous work plus its bookkeeping. The run
// function updates progress via SetProgress/SetResumedFrom; everything else
// is managed by the Manager.
type Job struct {
	id       string
	priority int
	seq      int64
	run      RunFunc

	done        atomic.Int64
	total       atomic.Int64
	resumedFrom atomic.Int64
	preemptions atomic.Int64

	// Guarded by the manager's mutex.
	state    State
	errMsg   string
	cancel   context.CancelCauseFunc // non-nil while running
	canceled bool                    // user cancel requested (sticky across parking)
	created  time.Time
	started  time.Time // first time it left the queue
	finished time.Time
	// span is the job's root trace span, open from submission to the
	// terminal state — one trace per job, spanning every run leg and park.
	// enqueued timestamps the latest (re-)enqueue so each dequeue can record
	// a back-dated queue.wait child.
	span     *span.Span
	traceID  string
	enqueued time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// SetProgress records how much of the job's work is done, in
// work-dependent units (instructions, sweep points). Safe to call from the
// run function at any granularity.
func (j *Job) SetProgress(done int64) { j.done.Store(done) }

// SetTotal records the job's total work once known.
func (j *Job) SetTotal(total int64) { j.total.Store(total) }

// SetResumedFrom records the progress position this run resumed from (zero
// = started fresh). The kill-and-resume tests assert on this: a resumed
// run's value must be strictly positive and strictly below the total.
func (j *Job) SetResumedFrom(pos int64) { j.resumedFrom.Store(pos) }

// ResumedFrom returns the most recent resume position.
func (j *Job) ResumedFrom() int64 { return j.resumedFrom.Load() }

// Snapshot is a point-in-time, transport-friendly view of a job.
type Snapshot struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Priority int    `json:"priority"`
	// Done/Total are run-func progress in its own units; Total may be zero
	// until the run function first reports it.
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// ResumedFrom is where the latest run segment picked up (0 = fresh).
	ResumedFrom int64 `json:"resumed_from"`
	// Preemptions counts checkpoint-and-park cycles this job survived.
	Preemptions int64 `json:"preemptions"`
	// TraceID names the job's span timeline on /v1/traces/{id} when the job
	// was sampled ("" otherwise). The trace publishes when the job reaches a
	// terminal state.
	TraceID    string    `json:"trace_id,omitempty"`
	Error      string    `json:"error,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
}

// Metrics is a point-in-time snapshot of the manager's counters, exported
// on /metrics as ovserve_jobs_*.
type Metrics struct {
	Submitted int64 `json:"submitted"`
	Shed      int64 `json:"shed"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Preempted int64 `json:"preempted"`
	// Panicked counts runs that panicked; each such job finished failed.
	Panicked int64 `json:"panicked"`
	Queued   int64 `json:"queued"`
	Running  int64 `json:"running"`
}

// Manager owns the queue, the worker pool and the job records. Construct
// with New; all methods are safe for concurrent use.
type Manager struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*Job
	jobs        map[string]*Job
	interactive int
	closed      bool
	seq         int64
	maxQueue    int
	running     int

	submitted atomic.Int64
	shed      atomic.Int64
	doneN     atomic.Int64
	failed    atomic.Int64
	canceledN atomic.Int64
	preempted atomic.Int64
	panicked  atomic.Int64

	// tracer records one span timeline per sampled job. Nil (the default)
	// keeps the whole layer untraced and allocation-free.
	tracer *span.Tracer

	wg sync.WaitGroup
}

// SetTracer installs the tracer that records one trace per sampled job.
// Call before the first Submit; a nil tracer (the default) disables
// tracing.
func (m *Manager) SetTracer(t *span.Tracer) { m.tracer = t }

// New starts a manager with the given worker pool size and queue bound
// (values < 1 are raised to 1). Close must be called to stop the workers.
func New(workers, maxQueue int) *Manager {
	m := &Manager{jobs: make(map[string]*Job), maxQueue: max(maxQueue, 1)}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < max(workers, 1); i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// newID returns a random 16-hex-character job id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: id entropy: %v", err)) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// Submit enqueues a job and returns its id immediately. Higher priority
// runs first; equal priorities run in submission order. When the queue is
// at capacity the job is shed with ErrQueueFull — the caller translates
// that into backpressure (HTTP 503 + Retry-After). After Close, Submit
// fails with ErrShutdown.
func (m *Manager) Submit(run RunFunc, priority int) (string, error) {
	return m.SubmitTraced(run, priority, false)
}

// SubmitTraced is Submit with an explicit trace-retention hint: force true
// bypasses the tracer's head sampling, the same contract as a sampled W3C
// traceparent on an HTTP request. The transport layer sets it when the
// submitting request is itself traced, so a traced submission always yields
// an inspectable job timeline.
func (m *Manager) SubmitTraced(run RunFunc, priority int, force bool) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", ErrShutdown
	}
	if len(m.queue) >= m.maxQueue {
		m.shed.Add(1)
		return "", ErrQueueFull
	}
	m.seq++
	j := &Job{
		id:       newID(),
		priority: priority,
		seq:      m.seq,
		run:      run,
		state:    StateQueued,
		created:  time.Now(),
		enqueued: time.Now(),
	}
	if sp := m.tracer.Root("job", span.TraceID{}, 0, force); sp != nil {
		sp.SetAttr("job_id", j.id)
		sp.SetInt("priority", int64(priority))
		j.span = sp
		j.traceID = sp.TraceID()
	}
	m.jobs[j.id] = j
	m.enqueueLocked(j)
	m.submitted.Add(1)
	m.cond.Broadcast()
	return j.id, nil
}

// enqueueLocked inserts a job keeping the queue sorted: priority
// descending, then sequence ascending (FIFO within a priority). Parked
// jobs keep their original sequence, so a preempted job resumes ahead of
// batch work submitted after it.
func (m *Manager) enqueueLocked(j *Job) {
	at, _ := slices.BinarySearchFunc(m.queue, j, func(a, b *Job) int {
		if a.priority != b.priority {
			return b.priority - a.priority
		}
		return int(a.seq - b.seq)
	})
	m.queue = slices.Insert(m.queue, at, j)
}

// Get returns a snapshot of the job with the given id.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return m.snapshotLocked(j), nil
}

func (m *Manager) snapshotLocked(j *Job) Snapshot {
	return Snapshot{
		ID:          j.id,
		State:       j.state,
		Priority:    j.priority,
		Done:        j.done.Load(),
		Total:       j.total.Load(),
		ResumedFrom: j.resumedFrom.Load(),
		Preemptions: j.preemptions.Load(),
		TraceID:     j.traceID,
		Error:       j.errMsg,
		CreatedAt:   j.created,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
}

// Cancel requests cancellation of a job. A queued job is removed and
// marked canceled immediately; a running job's context is canceled (the
// run function checkpoints and returns, after which the job lands in
// StateCanceled). Canceling a finished job returns ErrFinished.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch j.state {
	case StateQueued:
		if i := slices.Index(m.queue, j); i >= 0 {
			m.queue = slices.Delete(m.queue, i, i+1)
		}
		m.finishLocked(j, StateCanceled, context.Canceled)
		return nil
	case StateRunning:
		j.canceled = true
		j.cancel(context.Canceled)
		return nil
	default:
		return ErrFinished
	}
}

// BeginInteractive marks the start of an interactive request. While any
// interactive request is in flight, workers start no new batch jobs; the
// 0→1 transition additionally preempts every running job so interactive
// latency does not queue behind batch simulation. Pair every call with
// EndInteractive.
func (m *Manager) BeginInteractive() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.interactive++
	if m.interactive == 1 {
		// Cancellation order over the running set is unobservable: each
		// preempted job re-enqueues at its recorded queue position, and
		// delivery is asynchronous regardless of iteration order.
		//ovlint:allow determinism cancellation fans out to an unordered set of goroutines; queue order is restored from each job's recorded position
		for _, j := range m.jobs {
			if j.state == StateRunning && !j.canceled {
				j.cancel(ErrPreempted)
			}
		}
	}
}

// EndInteractive marks the end of an interactive request and, when the
// last one completes, wakes the workers to resume batch jobs.
func (m *Manager) EndInteractive() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.interactive > 0 {
		m.interactive--
	}
	if m.interactive == 0 {
		m.cond.Broadcast()
	}
}

// Metrics snapshots the manager counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	queued, running := int64(len(m.queue)), int64(m.running)
	m.mu.Unlock()
	return Metrics{
		Submitted: m.submitted.Load(),
		Shed:      m.shed.Load(),
		Done:      m.doneN.Load(),
		Failed:    m.failed.Load(),
		Canceled:  m.canceledN.Load(),
		Preempted: m.preempted.Load(),
		Panicked:  m.panicked.Load(),
		Queued:    queued,
		Running:   running,
	}
}

// Close stops the manager: queued jobs are canceled, running jobs are
// canceled with cause ErrShutdown — their run functions persist
// checkpoints, which is what makes jobs resumable across a restart — and
// Close blocks until every worker has exited.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	for _, j := range m.queue {
		m.finishLocked(j, StateCanceled, ErrShutdown)
	}
	m.queue = nil
	//ovlint:allow determinism shutdown cancels every running job; the set is drained completely, so order is unobservable
	for _, j := range m.jobs {
		if j.state == StateRunning {
			j.canceled = true
			j.cancel(ErrShutdown)
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// finishLocked moves a job to a terminal state and publishes its trace.
func (m *Manager) finishLocked(j *Job, st State, err error) {
	j.state = st
	j.finished = time.Now()
	if err != nil {
		j.errMsg = err.Error()
	}
	if j.span != nil {
		j.span.SetAttr("state", string(st))
		j.span.SetInt("preemptions", j.preemptions.Load())
		j.span.End()
		j.span = nil
	}
	switch st {
	case StateDone:
		m.doneN.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCanceled:
		m.canceledN.Add(1)
	}
}

// endLeg closes one job.run leg span with its outcome. Nil-safe, like every
// span operation.
func (m *Manager) endLeg(leg *span.Span, outcome string) {
	if leg == nil {
		return
	}
	leg.SetAttr("outcome", outcome)
	leg.End()
}

// runLeg calls j.run, turning a panic into a failed job instead of the end
// of the process: the error carries the panic value and the stack it was
// recovered on.
func (m *Manager) runLeg(ctx context.Context, j *Job) (panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.panicked.Add(1)
			panicked, err = true, fmt.Errorf("jobs: run panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return false, j.run(ctx, j)
}

// worker is the pool loop: wait for runnable work (non-empty queue, no
// interactive traffic, not closed), pop the best job, run it, classify the
// outcome.
func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		for !m.closed && (len(m.queue) == 0 || m.interactive > 0) {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.queue[0]
		m.queue = m.queue[1:]
		j.state = StateRunning
		if j.started.IsZero() {
			j.started = time.Now()
		}
		// Back-dated queue.wait child: how long this leg sat behind other
		// work (or behind interactive traffic, after a preemption).
		if j.span != nil {
			j.span.StartChildAt("queue.wait", j.enqueued).End()
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		j.cancel = cancel
		// One job.run child per leg; the run function's own spans (simulate,
		// checkpoint.park/restore, cache.resolve) nest under it via ctx.
		leg := j.span.StartChild("job.run")
		if leg != nil {
			ctx = span.NewContext(ctx, leg)
		}
		m.running++
		m.mu.Unlock()

		panicked, err := m.runLeg(ctx, j)
		cause := context.Cause(ctx)
		cancel(nil)

		m.mu.Lock()
		m.running--
		j.cancel = nil
		switch {
		case panicked:
			m.endLeg(leg, "panicked")
			m.finishLocked(j, StateFailed, err)
		case err == nil:
			m.endLeg(leg, "done")
			m.finishLocked(j, StateDone, nil)
		case errors.Is(cause, ErrPreempted) && !j.canceled && !m.closed:
			// Parked: back in the queue at its original position, to resume
			// from the checkpoint its run function just took.
			m.endLeg(leg, "preempted")
			j.state = StateQueued
			j.preemptions.Add(1)
			m.preempted.Add(1)
			j.enqueued = time.Now()
			m.enqueueLocked(j)
		case j.canceled || errors.Is(err, context.Canceled) || errors.Is(cause, ErrShutdown):
			m.endLeg(leg, "canceled")
			m.finishLocked(j, StateCanceled, cause)
		default:
			m.endLeg(leg, "failed")
			m.finishLocked(j, StateFailed, err)
		}
		m.cond.Broadcast()
	}
}
