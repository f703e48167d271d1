package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"oovec/internal/jobs"
	"oovec/internal/ooosim"
)

// del drives a DELETE through the handler stack.
func del(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("DELETE", path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// jobStatus fetches and decodes GET /v1/jobs/{id}.
func jobStatus(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	rec := get(t, s, "/v1/jobs/"+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d: %s", id, rec.Code, rec.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// submitJob posts a job and returns the submit response.
func submitJob(t *testing.T, s *Server, req JobRequest) JobSubmitResponse {
	t.Helper()
	rec := post(t, s, "/v1/jobs", req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d: %s", rec.Code, rec.Body)
	}
	var resp JobSubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitJob polls until the job reaches one of the wanted states.
func waitJob(t *testing.T, s *Server, id string, want ...jobs.State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := jobStatus(t, s, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (done %d/%d), want one of %v",
				id, st.State, st.Done, st.Total, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t)
	defer s.JobsClose()
	simReq := SimRequest{Bench: "trfd", Insns: testInsns, Config: SimConfig{VRegs: 12}}

	resp := submitJob(t, s, JobRequest{Sim: simReq})
	st := waitJob(t, s, resp.ID, jobs.StateDone)
	if st.Metrics == nil {
		t.Fatal("done job carries no metrics")
	}
	if st.Key != resp.Key {
		t.Fatalf("status key %q != submit key %q", st.Key, resp.Key)
	}

	// The job's result is the same cache entry /v1/sim serves — identical
	// metrics, served as a cache hit with zero new simulations.
	rec := post(t, s, "/v1/sim", simReq)
	var sim SimResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sim); err != nil {
		t.Fatal(err)
	}
	if !sim.Cached {
		t.Error("/v1/sim after the job re-simulated; the job result was not published")
	}
	if sim.Key != resp.Key {
		t.Errorf("sim key %q != job key %q", sim.Key, resp.Key)
	}
	wantJSON, _ := json.Marshal(sim.Metrics)
	gotJSON, _ := json.Marshal(st.Metrics)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("job metrics differ from /v1/sim metrics for the same key")
	}
	if n := s.SimsRun(); n != 1 {
		t.Errorf("sims run = %d, want 1 (job simulated once, sim was a hit)", n)
	}
}

func TestJobValidation(t *testing.T) {
	s := newTestServer(t)
	defer s.JobsClose()
	if rec := post(t, s, "/v1/jobs", JobRequest{Sim: SimRequest{Bench: "nope"}}); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown bench: status %d, want 400", rec.Code)
	}
	if rec := post(t, s, "/v1/jobs", JobRequest{
		Sim: SimRequest{Bench: "trfd"}, CheckpointInsns: -1,
	}); rec.Code != http.StatusBadRequest {
		t.Errorf("negative checkpoint_insns: status %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/v1/jobs/doesnotexist"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown id GET: status %d, want 404", rec.Code)
	}
	if rec := del(t, s, "/v1/jobs/doesnotexist"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown id DELETE: status %d, want 404", rec.Code)
	}
}

// TestJobKillAndResume is the acceptance criterion of the preemptible
// simulation layer: cancel a long-running job mid-run, tear the whole
// process state down (new Server, new Store on the same directory — a
// restart), submit the same job, and require (a) the resumed run picked up
// from the persisted checkpoint, strictly past zero and strictly short of
// the total, and (b) the final metrics are byte-identical to a never-
// interrupted run.
func TestJobKillAndResume(t *testing.T) {
	dir := t.TempDir()
	const insns = 200_000
	simReq := SimRequest{Bench: "bdna", Insns: insns, Config: SimConfig{VRegs: 12}}
	jobReq := JobRequest{Sim: simReq, CheckpointInsns: 20_000}

	// Process 1: start the job, cancel it mid-run.
	st1 := openStore(t, dir)
	// Tracing on in both lives: the resumed run below must stay
	// byte-identical to the untraced uninterrupted reference, proving the
	// checkpoint.park/restore spans observe without perturbing.
	s1 := New(Opts{Workers: 1, Store: st1, JobWorkers: 1, TraceSample: 1})
	resp := submitJob(t, s1, jobReq)

	// Wait until it is genuinely mid-run (progress moved past the first
	// abort-check) so the cancel exercises the mid-trace path.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := jobStatus(t, s1, resp.ID)
		if st.State == jobs.StateRunning && st.Done > 0 {
			break
		}
		if st.State == jobs.StateDone {
			t.Fatal("job finished before it could be canceled; raise insns")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reported progress")
		}
		time.Sleep(time.Millisecond)
	}
	canceledAt := time.Now()
	if rec := del(t, s1, "/v1/jobs/"+resp.ID); rec.Code != http.StatusAccepted {
		t.Fatalf("DELETE status %d: %s", rec.Code, rec.Body)
	}
	stopped := waitJob(t, s1, resp.ID, jobs.StateCanceled)
	// Cancellation latency is bounded by the abort-check interval — a few
	// thousand instructions, microseconds of simulation — never by the
	// remaining trace. The generous bound only catches run-to-completion
	// regressions.
	if lat := time.Since(canceledAt); lat > 30*time.Second {
		t.Errorf("cancellation took %v; mid-run aborts must not wait for the trace to finish", lat)
	}
	if stopped.Done <= 0 || stopped.Done >= insns {
		t.Fatalf("canceled at %d instructions, want strictly inside (0, %d)", stopped.Done, insns)
	}
	if _, ok := st1.LoadBlob(context.Background(), resp.Key); !ok {
		t.Fatal("no checkpoint blob persisted for the canceled job")
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	// Process 2: same directory, fresh everything. The same submission
	// must resume from the checkpoint, not restart.
	st2 := openStore(t, dir)
	s2 := New(Opts{Workers: 1, Store: st2, JobWorkers: 1, TraceSample: 1})
	resp2 := submitJob(t, s2, jobReq)
	if resp2.Key != resp.Key {
		t.Fatalf("same request produced key %q, first process had %q", resp2.Key, resp.Key)
	}
	done := waitJob(t, s2, resp2.ID, jobs.StateDone)
	if done.ResumedFrom <= 0 || done.ResumedFrom >= insns {
		t.Fatalf("resumed_from = %d, want strictly inside (0, %d)", done.ResumedFrom, insns)
	}
	if done.Metrics == nil {
		t.Fatal("resumed job carries no metrics")
	}
	// The resumed process simulated only the un-checkpointed tail. Total is
	// the generated trace's length (generation may overshoot the requested
	// budget), so the tail is measured against it, not the request.
	if tail := metricValue(t, s2, "ovserve_sim_insns_total"); tail != done.Total-done.ResumedFrom {
		t.Errorf("ovserve_sim_insns_total = %d, want the tail %d", tail, done.Total-done.ResumedFrom)
	}
	if n := metricValue(t, s2, "ovserve_checkpoints_resumed_total"); n == 0 {
		t.Error("ovserve_checkpoints_resumed_total = 0 after a resume")
	}
	if _, ok := st2.LoadBlob(context.Background(), resp.Key); ok {
		t.Error("checkpoint blob not retired after the job completed")
	}

	// Byte-identical to a run that was never interrupted.
	ref := newTestServer(t)
	defer ref.JobsClose()
	rec := post(t, ref, "/v1/sim", simReq)
	var want SimResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(done.Metrics)
	wantJSON, _ := json.Marshal(want.Metrics)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("resumed metrics differ from an uninterrupted run:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}

	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2.Close()
}

// TestJobRestartsFromStaleLayoutCheckpoint: a checkpoint blob of another
// layout left in the store — here layout 2, whose disambiguation ring the
// current layout moved into the M queue — is not resumed. The job restarts
// at instruction 0 and its result is byte-identical to /v1/sim.
func TestJobRestartsFromStaleLayoutCheckpoint(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	s := New(Opts{Workers: 1, Store: st, JobWorkers: 1})
	defer s.JobsClose()
	simReq := SimRequest{Bench: "bdna", Insns: 20_000}
	plan, err := s.planSim(&simReq)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	plan.runCk(context.Background(), nil, 5_000, ckCallbacks{onCheckpoint: func(b []byte) {
		if blob == nil {
			blob = b
		}
	}})
	ck, err := ooosim.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextInsn <= 0 {
		t.Fatalf("checkpoint at instruction %d; a resume from it would be indistinguishable from a restart", ck.NextInsn)
	}
	ck.Layout = 2
	stale, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveBlob(context.Background(), plan.key, stale); err != nil {
		t.Fatal(err)
	}

	resp := submitJob(t, s, JobRequest{Sim: simReq, CheckpointInsns: 5_000})
	if resp.Key != plan.key {
		t.Fatalf("job key %q, planned %q", resp.Key, plan.key)
	}
	done := waitJob(t, s, resp.ID, jobs.StateDone)
	if done.ResumedFrom != 0 {
		t.Errorf("resumed_from = %d from a stale-layout checkpoint, want 0", done.ResumedFrom)
	}
	ref := newTestServer(t)
	defer ref.JobsClose()
	var want SimResponse
	if err := json.Unmarshal(post(t, ref, "/v1/sim", simReq).Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(done.Metrics)
	wantJSON, _ := json.Marshal(want.Metrics)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("restarted job's metrics differ from /v1/sim:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestJobPreemptedByInteractiveTraffic: an interactive /v1/sim arriving
// while a batch job runs preempts it (checkpoint-and-park); the job then
// resumes and completes with exactly the metrics of an uninterrupted run —
// on a memory-only server, proving the parked checkpoint needs no store.
func TestJobPreemptedByInteractiveTraffic(t *testing.T) {
	s := New(Opts{Workers: 1, JobWorkers: 1})
	defer s.JobsClose()
	const insns = 150_000
	jobReq := JobRequest{Sim: SimRequest{Bench: "hydro2d", Insns: insns}, CheckpointInsns: 10_000}
	resp := submitJob(t, s, jobReq)

	deadline := time.Now().Add(60 * time.Second)
	for {
		st := jobStatus(t, s, resp.ID)
		if st.State == jobs.StateRunning && st.Done > 0 {
			break
		}
		if st.State == jobs.StateDone {
			t.Fatal("job finished before the interactive request; raise insns")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Interactive traffic: preempts the running job for its duration.
	if rec := post(t, s, "/v1/sim", SimRequest{Bench: "trfd", Insns: testInsns}); rec.Code != http.StatusOK {
		t.Fatalf("interactive sim status %d: %s", rec.Code, rec.Body)
	}

	done := waitJob(t, s, resp.ID, jobs.StateDone)
	if done.Preemptions == 0 {
		t.Error("job reports zero preemptions after interactive traffic")
	}
	if done.ResumedFrom <= 0 {
		t.Error("preempted job did not resume from its parked checkpoint")
	}
	if n := metricValue(t, s, "ovserve_jobs_preempted_total"); n == 0 {
		t.Error("ovserve_jobs_preempted_total = 0")
	}

	// Preemption must not change the measurements.
	rec := post(t, s, "/v1/sim", SimRequest{Bench: "hydro2d", Insns: insns})
	var sim SimResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sim); err != nil {
		t.Fatal(err)
	}
	if !sim.Cached {
		t.Error("preempted job's result was not published to the cache")
	}
	gotJSON, _ := json.Marshal(done.Metrics)
	ref := newTestServer(t)
	defer ref.JobsClose()
	refRec := post(t, ref, "/v1/sim", SimRequest{Bench: "hydro2d", Insns: insns})
	var want SimResponse
	if err := json.Unmarshal(refRec.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Metrics)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("preempted-and-resumed metrics differ from an uninterrupted run")
	}
}

// TestJobQueueFullSheds: the bounded queue refuses the overflow with 503 +
// Retry-After instead of queueing without bound.
func TestJobQueueFullSheds(t *testing.T) {
	s := New(Opts{Workers: 1, JobWorkers: 1, JobQueue: 1})
	defer s.JobsClose()
	big := JobRequest{Sim: SimRequest{Bench: "bdna", Insns: 2_000_000}}

	running := submitJob(t, s, big) // occupies the worker
	waitJob(t, s, running.ID, jobs.StateRunning)
	queued := submitJob(t, s, JobRequest{Sim: SimRequest{Bench: "trfd", Insns: 2_000_000}})

	rec := post(t, s, "/v1/jobs", JobRequest{Sim: SimRequest{Bench: "hydro2d", Insns: 2_000_000}})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overfull submit: status %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response has no Retry-After header")
	}
	if n := metricValue(t, s, "ovserve_jobs_shed_total"); n != 1 {
		t.Errorf("ovserve_jobs_shed_total = %d, want 1", n)
	}
	del(t, s, "/v1/jobs/"+running.ID)
	del(t, s, "/v1/jobs/"+queued.ID)
}

// TestDrainRefusalsCarryRetryAfter: the drain 503 on the simulation routes
// now tells clients when to retry, matching the 429 limiter.
func TestDrainRefusalsCarryRetryAfter(t *testing.T) {
	s := newTestServer(t)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []func() *httptest.ResponseRecorder{
		func() *httptest.ResponseRecorder { return post(t, s, "/v1/sim", SimRequest{Bench: "trfd"}) },
		func() *httptest.ResponseRecorder {
			return post(t, s, "/v1/sweep", SweepRequest{Bench: []string{"trfd"}})
		},
	} {
		rec := probe()
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("draining server answered %d, want 503", rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Error("drain 503 has no Retry-After header")
		}
	}
}

// TestWarmStartPreloadsMemoryTier: a restarted server pre-loads its MRU
// disk entries, so the first repeat request is a memory hit — no disk
// probe, no simulation.
func TestWarmStartPreloadsMemoryTier(t *testing.T) {
	dir := t.TempDir()
	simReq := SimRequest{Bench: "trfd", Insns: testInsns, Config: SimConfig{VRegs: 12}}

	st1 := openStore(t, dir)
	s1 := New(Opts{Workers: 1, Store: st1})
	post(t, s1, "/v1/sim", simReq)
	st1.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Opts{Workers: 1, Store: st2})
	if n := s2.WarmStart(64 << 20); n != 1 {
		t.Fatalf("WarmStart loaded %d entries, want 1", n)
	}
	if n := metricValue(t, s2, "ovserve_warm_preloaded"); n != 1 {
		t.Errorf("ovserve_warm_preloaded = %d, want 1", n)
	}
	diskHitsBefore := st2.Stats().Hits
	rec := post(t, s2, "/v1/sim", simReq)
	var resp SimResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("pre-loaded entry was not served as a cache hit")
	}
	if s2.SimsRun() != 0 {
		t.Error("pre-loaded request re-simulated")
	}
	if st2.Stats().Hits != diskHitsBefore {
		t.Error("request probed the disk tier despite the warm pre-load")
	}
}

// TestJobStoreProbesOncePerFile pins how often a job reads the durable
// store: a job whose result is already on disk reads the entry file once
// (and promotes it, so the status poll hits memory), and a cold job probes
// once for the result and once for a checkpoint blob — publishing its
// result does not probe the store again.
func TestJobStoreProbesOncePerFile(t *testing.T) {
	dir := t.TempDir()
	simReq := SimRequest{Bench: "trfd", Insns: testInsns, Config: SimConfig{VRegs: 12}}

	st1 := openStore(t, dir)
	s1 := New(Opts{Workers: 1, Store: st1})
	post(t, s1, "/v1/sim", simReq)
	st1.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Opts{Workers: 1, Store: st2})
	defer s2.JobsClose()

	before := st2.Stats()
	done := waitJob(t, s2, submitJob(t, s2, JobRequest{Sim: simReq}).ID, jobs.StateDone)
	after := st2.Stats()
	if done.Metrics == nil {
		t.Fatal("disk-served job carries no metrics")
	}
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 0 {
		t.Errorf("job with its result on disk: +%d store hits, +%d misses; want +1, +0", hits, misses)
	}
	if n := s2.SimsRun(); n != 0 {
		t.Errorf("job with its result on disk simulated %d times, want 0", n)
	}

	cold := simReq
	cold.Config.VRegs = 20
	before = st2.Stats()
	done = waitJob(t, s2, submitJob(t, s2, JobRequest{Sim: cold}).ID, jobs.StateDone)
	after = st2.Stats()
	if done.Metrics == nil {
		t.Fatal("cold job carries no metrics")
	}
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 0 || misses != 2 {
		t.Errorf("cold job: +%d store hits, +%d misses; want +0, +2 (result and blob)", hits, misses)
	}
	if n := s2.SimsRun(); n != 1 {
		t.Errorf("cold job simulated %d times in total, want 1", n)
	}
}
