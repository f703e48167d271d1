package server

// The asynchronous job API: long simulations move out of the request path
// into internal/jobs' bounded queue, run with cycle-granular cancellation,
// checkpoint through the durable store, and survive preemption, explicit
// cancellation and full process restarts.
//
//	POST   /v1/jobs       submit; returns the job id immediately
//	GET    /v1/jobs/{id}  status + progress (+ metrics once done)
//	DELETE /v1/jobs/{id}  cancel; the run checkpoints before it stops
//
// Checkpoints are persisted as store blobs under the job's result key —
// the same content address the result itself will be cached under — so
// resumption is content-addressed too: a re-submitted or restarted job for
// the same (machine, config, trace) picks up the old job's checkpoint even
// though the job id is new. On completion the result is published through
// the shared result cache (a later /v1/sim for the same key is a pure
// cache hit) and the checkpoint blob is deleted.

import (
	"context"
	"errors"
	"net/http"
	"sync"

	"oovec/internal/jobs"
	"oovec/internal/metrics"
	"oovec/internal/span"
)

// DefaultCheckpointInsns is the periodic checkpoint cadence (instructions)
// of a job that does not choose its own.
const DefaultCheckpointInsns = 100_000

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	// Sim is the simulation to run — the same surface as POST /v1/sim.
	Sim SimRequest `json:"sim"`
	// CheckpointInsns is the periodic checkpoint cadence in instructions
	// (0 = DefaultCheckpointInsns). Checkpoints bound the work lost to a
	// kill or restart to at most this many instructions.
	CheckpointInsns int `json:"checkpoint_insns,omitempty"`
	// Priority orders the queue: higher runs first, equal priorities run
	// in submission order.
	Priority int `json:"priority,omitempty"`
}

// JobSubmitResponse is the body of a successful POST /v1/jobs.
type JobSubmitResponse struct {
	// ID addresses the job on GET/DELETE /v1/jobs/{id}.
	ID string `json:"id"`
	// Key is the content address the result will be cached under — usable
	// against /v1/sim once the job is done.
	Key string `json:"key"`
	// TraceID names the job's own span timeline (distinct from the submit
	// request's trace) when the job was sampled. The timeline publishes to
	// /v1/traces/{id} once the job reaches a terminal state.
	TraceID string `json:"trace_id,omitempty"`
}

// JobStatus is the body of GET /v1/jobs/{id}: the job record plus, once
// the job is done, the result itself.
type JobStatus struct {
	jobs.Snapshot
	Key string `json:"key"`
	// Metrics carries the result when State is "done" and the result is
	// still cached.
	Metrics *metrics.RunStats `json:"metrics,omitempty"`
}

// jobInfo is the server-side record tying a job id to its simulation.
type jobInfo struct {
	key string
	// parked holds the latest checkpoint in memory, so preemption resumes
	// losslessly even on a server running without a durable store.
	mu     sync.Mutex
	parked []byte
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	plan, err := s.planSim(&req.Sim)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.CheckpointInsns < 0 {
		httpError(w, http.StatusBadRequest, "checkpoint_insns must be non-negative")
		return
	}
	ckEvery := req.CheckpointInsns
	if ckEvery == 0 {
		ckEvery = DefaultCheckpointInsns
	}
	info := &jobInfo{key: plan.key}
	// A traced submission forces the job's own trace past head sampling —
	// the caller that injected traceparent gets an inspectable job timeline,
	// not just the short POST /v1/jobs one.
	id, err := s.jobs.SubmitTraced(s.jobRun(plan, info, ckEvery), req.Priority,
		span.FromContext(r.Context()) != nil)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		// The load-shedding path: bounded queue, explicit backpressure.
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "job queue full (%v)", err)
		return
	case err != nil:
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.jobsMu.Lock()
	s.jobInfos[id] = info
	s.jobsMu.Unlock()
	snap, _ := s.jobs.Get(id)
	writeJSON(w, http.StatusAccepted, JobSubmitResponse{ID: id, Key: plan.key, TraceID: snap.TraceID})
}

// jobRun builds the jobs.RunFunc for one simulation job. It may run many
// times (once per preemption) and must be restartable: each invocation
// resumes from the freshest checkpoint available — in-memory parked state
// first (preemption within this process), then the store blob (kill or
// restart) — and re-persists one on every interruption.
func (s *Server) jobRun(plan *simPlan, info *jobInfo, ckEvery int) jobs.RunFunc {
	return func(ctx context.Context, j *jobs.Job) error {
		// Already computed — by a /v1/sim, a sweep, or a previous job for
		// the same content address? Then there is nothing to run.
		if _, ok := s.results.Lookup(ctx, plan.key); ok {
			j.SetProgress(j.ResumedFrom())
			return nil
		}

		info.mu.Lock()
		resume := info.parked
		info.mu.Unlock()
		if resume == nil && s.store != nil {
			sp, sctx := span.Start(ctx, "checkpoint.restore")
			resume, _ = s.store.LoadBlob(sctx, plan.key)
			sp.SetInt("bytes", int64(len(resume)))
			sp.End()
		}

		persist := func(b []byte) {
			info.mu.Lock()
			info.parked = b
			info.mu.Unlock()
			if s.store == nil {
				return
			}
			// ctx may already be canceled here (persist runs on the
			// preemption/cancel path); it carries only observability, which the
			// store contract says must never fail a write.
			sp, sctx := span.Start(ctx, "checkpoint.park")
			sp.SetInt("bytes", int64(len(b)))
			if s.store.SaveBlob(sctx, plan.key, b) == nil {
				s.ckSaved.Add(1)
			}
			sp.End()
		}

		start := 0
		st, ck, next, err := plan.runCk(ctx, resume, ckEvery, ckCallbacks{
			onStart: func(from, total int) {
				start = from
				if from > 0 {
					s.ckResumed.Add(1)
				}
				j.SetResumedFrom(int64(from))
				j.SetTotal(int64(total))
				j.SetProgress(int64(from))
			},
			onProgress:   func(done int) { j.SetProgress(int64(done)) },
			onCheckpoint: persist,
		})
		s.simInsns.Add(int64(next - start))
		if err != nil {
			if ck != nil {
				// Canceled, preempted or shutting down: the checkpoint is
				// the job's future. Persist it synchronously — by the time
				// DELETE returns or Drain completes, it is durable.
				persist(ck)
				j.SetProgress(int64(next))
			}
			return err
		}

		// Done: publish through the shared cache (counting the simulation
		// exactly once, like /v1/sim), then retire the checkpoint.
		if s.results.Publish(ctx, plan.key, st) {
			s.simsTotal.Add(1)
		}
		info.mu.Lock()
		info.parked = nil
		info.mu.Unlock()
		if s.store != nil {
			s.store.DeleteBlob(plan.key)
		}
		j.SetProgress(int64(next))
		return nil
	}
}

// lookupJob resolves the {id} path segment to the job snapshot and the
// server-side info record, answering 404 itself when absent.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (jobs.Snapshot, *jobInfo, bool) {
	id := r.PathValue("id")
	snap, err := s.jobs.Get(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no job %q", id)
		return jobs.Snapshot{}, nil, false
	}
	s.jobsMu.Lock()
	info := s.jobInfos[snap.ID]
	s.jobsMu.Unlock()
	if info == nil {
		httpError(w, http.StatusNotFound, "no job %q", id)
		return jobs.Snapshot{}, nil, false
	}
	return snap, info, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, info, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	status := JobStatus{Snapshot: snap, Key: info.key}
	if snap.State == jobs.StateDone {
		status.Metrics, _ = s.results.Lookup(r.Context(), info.key)
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, info, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	switch err := s.jobs.Cancel(snap.ID); {
	case errors.Is(err, jobs.ErrFinished):
		httpError(w, http.StatusConflict, "job %s already %s", snap.ID, snap.State)
		return
	case err != nil:
		httpError(w, http.StatusNotFound, "no job %q", snap.ID)
		return
	}
	// The operator breadcrumb: a cancellation destroys queued work, so the
	// log records who asked (request id), which job, and the result key the
	// parked checkpoint stays addressable under.
	if s.log != nil {
		s.log.Info("job canceled",
			"request_id", RequestID(r.Context()),
			"job_id", snap.ID,
			"key", info.key)
	}
	// 202: cancellation is in flight. A running job stops within one
	// abort-check interval and persists its checkpoint first; poll GET
	// /v1/jobs/{id} for the terminal "canceled" state.
	snap, _ = s.jobs.Get(snap.ID)
	writeJSON(w, http.StatusAccepted, JobStatus{Snapshot: snap, Key: info.key})
}

// WarmStart pre-loads the most-recently-used durable results into the
// memory tier, newest first, bounded by maxBytes of on-disk entries. It
// returns how many results were loaded. Called once at daemon startup
// (-warm-bytes); a no-op without a store.
func (s *Server) WarmStart(maxBytes int64) int {
	if s.store == nil || maxBytes <= 0 {
		return 0
	}
	n := s.results.Preload(s.store.RecentKeys(maxBytes))
	s.warmLoaded.Store(int64(n))
	return n
}

// JobsClose shuts the job layer down: running jobs are canceled with the
// shutdown cause and persist their checkpoints (the store must still be
// open), queued jobs are canceled. Drain calls it; it is idempotent.
func (s *Server) JobsClose() {
	s.jobsOnce.Do(func() { s.jobs.Close() })
}
