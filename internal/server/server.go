// Package server exposes the simulators as a long-lived HTTP/JSON service —
// the ovserve daemon. Where the CLIs pay trace generation per process, the
// server amortises it across requests: the content-addressed result cache
// (package simcache) makes a repeated identical request a lookup that
// performs zero new simulations, concurrent identical requests coalesce onto
// one simulation (singleflight), and generated traces are shared
// process-wide. Each simulation builds its machine for the one run and
// drops it; machine state is fixed-size, so construction is cheap beside
// the run.
//
// Endpoints:
//
//	POST /v1/sim     one simulation (preset or uploaded OVTR trace), cached
//	POST /v1/sweep   a parameter grid fanned across the engine worker pool,
//	                 streamed as NDJSON in deterministic order; every grid
//	                 point is served through the same result cache as
//	                 /v1/sim, so repeated or overlapping sweeps only
//	                 simulate points never seen before
//	GET  /v1/presets the benchmark presets
//	GET  /healthz    liveness (503 while draining; never requires auth)
//	GET  /metrics    Prometheus-style counters
//
// Every route runs behind the production middleware stack (middleware.go):
// graceful-drain gating, optional bearer-token auth (Opts.AuthToken;
// /healthz exempt), a bounded in-flight limiter for the simulation routes
// (Opts.MaxInflight; overload answers 429 + Retry-After), per-request
// deadlines (Opts.Timeout; sweeps observe them between grid points), and
// per-route latency/outcome counters on /metrics.
//
// The measurements returned are the exact structs the CLIs print: /v1/sim
// carries metrics.RunStats, /v1/sweep streams sweep.Point rows in the same
// order ovsweep writes CSV rows, so service output is byte-convertible to
// CLI output. See docs/API.md for the full route reference.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oovec/internal/engine"
	"oovec/internal/hist"
	"oovec/internal/jobs"
	"oovec/internal/simcache"
	"oovec/internal/span"
	"oovec/internal/store"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// Opts configures a Server.
type Opts struct {
	// Workers is the engine worker count sweep grids fan across
	// (0 = one per core).
	Workers int
	// CacheEntries bounds the simulation result cache (0 = 4096).
	CacheEntries int
	// MaxUploadBytes bounds request bodies, and therefore uploaded traces
	// (0 = 32 MiB).
	MaxUploadBytes int64
	// TraceLimits bounds uploaded OVTR decoding (zero fields =
	// trace.DefaultLimits).
	TraceLimits trace.Limits
	// Timeout is the per-request deadline of the API routes (0 = none).
	// Sweeps observe it between grid points; a request that exceeds it
	// mid-stream is terminated with an NDJSON error record.
	Timeout time.Duration
	// AuthToken, when non-empty, requires `Authorization: Bearer <token>`
	// on every route except /healthz; requests without it get 401.
	AuthToken string
	// MaxInflight bounds concurrently executing simulation requests
	// (/v1/sim and /v1/sweep); excess requests are refused with 429 and a
	// Retry-After header instead of queueing without bound (0 = unlimited).
	MaxInflight int
	// Store, when non-nil, is the durable disk tier behind the result
	// cache (-cache-dir): results evicted from memory — or computed by an
	// earlier process sharing the directory — are served from disk instead
	// of re-simulated, which is what makes a restarted server warm. The
	// caller owns the store's lifecycle (Close after Drain).
	Store *store.Store
	// JobWorkers is the async job worker pool size (0 = 1): how many
	// /v1/jobs simulations run concurrently when no interactive traffic is
	// in flight.
	JobWorkers int
	// JobQueue bounds the job queue (0 = 16); submissions beyond it are
	// shed with 503 + Retry-After.
	JobQueue int
	// Log, when non-nil, receives one structured line per finished request
	// (see log.go) and the operational breadcrumbs (job cancellations,
	// sweep aborts). nil = no request logging.
	Log *slog.Logger
	// SlowRequest, when > 0, is the duration at or beyond which a request
	// is logged at WARN with slow=true instead of INFO (-slow-request).
	SlowRequest time.Duration
	// TraceSample enables request tracing: 1 in TraceSample requests get a
	// span timeline recorded into the in-process trace buffer (1 = every
	// request, 0 = tracing disabled). A caller-supplied W3C traceparent
	// header with the sampled flag set forces the trace to be kept
	// regardless of the sampling counter.
	TraceSample int
	// TraceBuffer bounds the in-process trace buffer (0 = 256 recent
	// traces); the slowest traces seen are retained beyond the ring.
	TraceBuffer int
}

// Server is the ovserve request handler set. Construct with New; serve
// Handler() with net/http.
type Server struct {
	workers        int
	maxUploadBytes int64
	traceLimits    trace.Limits
	timeout        time.Duration
	authToken      string
	maxInflight    int
	inflightSem    chan struct{} // nil when MaxInflight is 0 (unlimited)
	log            *slog.Logger  // nil = no request logging
	slowReq        time.Duration
	version        string // module version for ovserve_build_info

	results *simcache.Results
	store   *store.Store // nil = memory-only
	tracer  *span.Tracer // nil = tracing disabled

	// The async job layer (jobs.go). jobInfos ties job ids to their result
	// keys and parked checkpoints; jobsOnce makes shutdown idempotent.
	jobs     *jobs.Manager
	jobsMu   sync.Mutex
	jobInfos map[string]*jobInfo
	jobsOnce sync.Once

	mux   *http.ServeMux
	start time.Time

	// The drain gate. A WaitGroup cannot express it: Add(1) racing a
	// pending Wait is a documented WaitGroup misuse (panic), and new
	// requests keep arriving while Drain waits. draining is additionally
	// mirrored in an atomic for the cheap read paths (healthz).
	gateMu   sync.Mutex
	active   int
	idle     chan struct{} // non-nil once draining with requests in flight
	draining atomic.Bool

	// Counters exported by /metrics.
	nInflight   atomic.Int64
	simsTotal   atomic.Int64
	simInsns    atomic.Int64 // instructions actually simulated by jobs (resumes count only their tail)
	ckSaved     atomic.Int64 // checkpoints persisted to the store
	ckResumed   atomic.Int64 // job run segments that resumed from a checkpoint
	warmLoaded  atomic.Int64 // results pre-loaded into memory by WarmStart
	sweepRows   atomic.Int64
	sweepErrors atomic.Int64
	rejected    atomic.Int64 // requests refused with 503 while draining
	throttled   atomic.Int64 // requests refused with 429 over MaxInflight
	unauthed    atomic.Int64 // requests refused with 401
	requests    map[string]*atomic.Int64
	durations   map[string]*hist.Hist // per-route request-latency histograms
	// resolve holds one latency histogram per result-resolution tier
	// (memory hit / disk hit / simulate), fed by the result cache's
	// observer: where a /v1/sim or sweep point was answered from, and how
	// long that tier took.
	resolve [simcache.NumTiers]hist.Hist
	// responses counts finished requests per (route, status code). Status
	// codes are open-ended, so this one is a locked map, touched once per
	// request.
	respMu    sync.Mutex
	responses map[string]map[int]int64

	// testHookSweepRow, when non-nil, runs after each sweep row is flushed.
	// Tests use it to hold a sweep in flight deterministically.
	testHookSweepRow func(row int)
	// testHookSweepSim, when non-nil, runs at the start of every sweep grid
	// simulation (cache hits excluded), on the worker goroutine. Tests use
	// it to stall, fail or count grid points deterministically.
	testHookSweepSim func()
}

// routes are the request-counter buckets of /metrics.
var routes = []string{"/v1/sim", "/v1/sweep", "/v1/jobs", "/v1/jobs/{id}", "/v1/presets", "/v1/cache", "/v1/traces", "/v1/traces/{id}", "/healthz", "/metrics", "/debug/pprof/"}

// New builds a server.
func New(opts Opts) *Server {
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 4096
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = 32 << 20
	}
	// A typed-nil *store.Store must not become a non-nil interface.
	var disk simcache.ResultStore
	if opts.Store != nil {
		disk = opts.Store
	}
	if opts.JobQueue <= 0 {
		opts.JobQueue = 16
	}
	// Resolved here because the bound also caps preset budgets (checkInsns).
	if opts.TraceLimits.MaxInsns <= 0 {
		opts.TraceLimits.MaxInsns = trace.DefaultLimits().MaxInsns
	}
	s := &Server{
		workers:        opts.Workers,
		maxUploadBytes: opts.MaxUploadBytes,
		traceLimits:    opts.TraceLimits,
		timeout:        opts.Timeout,
		authToken:      opts.AuthToken,
		maxInflight:    opts.MaxInflight,
		log:            opts.Log,
		slowReq:        opts.SlowRequest,
		version:        buildVersion(),
		tracer:         span.NewTracer(opts.TraceSample, opts.TraceBuffer),
		results:        simcache.NewResults(opts.CacheEntries, disk),
		store:          opts.Store,
		jobs:           jobs.New(opts.JobWorkers, opts.JobQueue),
		jobInfos:       make(map[string]*jobInfo),
		mux:            http.NewServeMux(),
		start:          time.Now(),
		requests:       make(map[string]*atomic.Int64, len(routes)),
		durations:      make(map[string]*hist.Hist, len(routes)),
		responses:      make(map[string]map[int]int64, len(routes)),
	}
	if opts.MaxInflight > 0 {
		s.inflightSem = make(chan struct{}, opts.MaxInflight)
	}
	for _, r := range routes {
		s.requests[r] = &atomic.Int64{}
		s.durations[r] = &hist.Hist{}
		s.responses[r] = make(map[int]int64, 4)
	}
	// Per-tier resolution latency: the result cache reports where each
	// lookup was answered (memory, disk, fresh simulation) and how long
	// that took; /metrics exposes one histogram per tier, with the trace id
	// of a traced request attached as the bucket's OpenMetrics exemplar.
	s.results.SetObserver(func(ctx context.Context, t simcache.Tier, d time.Duration) {
		s.resolve[t].ObserveTrace(d, span.FromContext(ctx).TraceID())
	})
	// The job layer records one trace per sampled job — submission to
	// terminal state, with a queue.wait and job.run leg per dequeue.
	s.jobs.SetTracer(s.tracer)
	// The middleware chain of each route (see middleware.go): simulation
	// routes get the full production stack, the cheap introspection routes
	// only what they need — /healthz must answer during drain and without
	// credentials, or it is useless to a load balancer.
	// The interactive flag marks the routes whose arrival preempts batch
	// jobs: an interactive caller never queues behind a million-instruction
	// background run.
	sim := routeOpts{gate: true, auth: true, limit: true, timeout: true, interactive: true}
	meta := routeOpts{gate: true, auth: true}
	s.mux.HandleFunc("POST /v1/sim", s.instrument("/v1/sim", sim, s.handleSim))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", sim, s.handleSweep))
	s.mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", meta, s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", meta, s.handleJobGet))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", meta, s.handleJobCancel))
	s.mux.HandleFunc("GET /v1/presets", s.instrument("/v1/presets", meta, s.handlePresets))
	s.mux.HandleFunc("GET /v1/cache", s.instrument("/v1/cache", meta, s.handleCache))
	s.mux.HandleFunc("GET /v1/traces", s.instrument("/v1/traces", meta, s.handleTraces))
	s.mux.HandleFunc("GET /v1/traces/{id}", s.instrument("/v1/traces/{id}", meta, s.handleTraceGet))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", routeOpts{}, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", routeOpts{auth: true}, s.handleMetrics))
	s.mux.HandleFunc("GET /debug/pprof/", s.instrument("/debug/pprof/", routeOpts{auth: true}, s.handlePprof))
	return s
}

// buildVersion resolves the module version stamped into the binary, or
// "unknown" for an unstamped build (go test, plain go build of a dirty
// tree). The value labels ovserve_build_info.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// Handler returns the HTTP handler serving all routes.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers returns the resolved sweep worker count.
func (s *Server) Workers() int { return engine.Workers(s.workers) }

// Drain puts the server into shutdown: new API requests are refused with
// 503 + Retry-After while requests already in flight run to completion,
// and the job layer is closed — running jobs are canceled and persist
// their checkpoints (resumable by the next process sharing the store
// directory). It returns once the last in-flight request has finished,
// or with ctx's error if the context expires first; the job layer is
// closed on every path, before the caller closes the store.
func (s *Server) Drain(ctx context.Context) error {
	defer s.JobsClose()
	s.gateMu.Lock()
	s.draining.Store(true)
	if s.active == 0 {
		s.gateMu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.gateMu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter admits a request into the drain gate; exit releases it, waking
// Drain when the last in-flight request leaves.
func (s *Server) enter() bool {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.active++
	return true
}

func (s *Server) exit() {
	s.gateMu.Lock()
	s.active--
	if s.active == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.gateMu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, tgen.Presets())
}

// CacheStats is the body of GET /v1/cache: the admin view of every cache
// tier. Store is null when the daemon runs without -cache-dir.
type CacheStats struct {
	// Result is the in-memory result tier (entries, bytes, hit/miss/evict
	// counters); Trace is the process-wide generated-trace cache.
	Result simcache.Stats `json:"result"`
	Trace  simcache.Stats `json:"trace"`
	// Store is the durable disk tier, when configured.
	Store *StoreStats `json:"store"`
}

// StoreStats adds the disk tier's location and bound to its counters.
type StoreStats struct {
	store.Stats
	Dir      string `json:"dir"`
	MaxBytes int64  `json:"max_bytes"`
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	resp := CacheStats{
		Result: s.results.MemStats(),
		Trace:  simcache.TraceStats(),
	}
	if s.store != nil {
		resp.Store = &StoreStats{
			Stats:    s.store.Stats(),
			Dir:      s.store.Dir(),
			MaxBytes: s.store.MaxBytes(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// openMetricsType is the content type of the OpenMetrics text exposition.
// Exemplars are OpenMetrics-only syntax, so they are rendered exactly when
// a scraper asks for this format.
const openMetricsType = "application/openmetrics-text"

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Content negotiation: the default exposition is Prometheus 0.0.4 text,
	// whose parser treats a trailing exemplar as a malformed timestamp and
	// fails the whole scrape — so the default stays exemplar-free. A scraper
	// that accepts application/openmetrics-text gets the OpenMetrics shape
	// instead: histogram TYPE metadata, exemplar suffixes on bucket lines,
	// and the # EOF terminator the format requires.
	om := strings.Contains(r.Header.Get("Accept"), openMetricsType)
	if om {
		w.Header().Set("Content-Type", openMetricsType+"; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	}
	fmt.Fprintf(w, "ovserve_build_info{version=%q,go=%q} 1\n", s.version, runtime.Version())
	fmt.Fprintf(w, "ovserve_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	fmt.Fprintf(w, "ovserve_inflight %d\n", s.nInflight.Load())
	for _, route := range routes {
		fmt.Fprintf(w, "ovserve_requests_total{path=%q} %d\n", route, s.requests[route].Load())
	}
	if om {
		fmt.Fprintf(w, "# TYPE ovserve_request_duration_seconds histogram\n")
	}
	for _, route := range routes {
		s.durations[route].WriteProm(w, "ovserve_request_duration_seconds", fmt.Sprintf("path=%q", route), om)
	}
	if om {
		fmt.Fprintf(w, "# TYPE ovserve_resolve_duration_seconds histogram\n")
	}
	for t := simcache.Tier(0); t < simcache.NumTiers; t++ {
		s.resolve[t].WriteProm(w, "ovserve_resolve_duration_seconds", fmt.Sprintf("tier=%q", t.String()), om)
	}
	s.writeResponseMetrics(w)
	fmt.Fprintf(w, "ovserve_requests_rejected_total %d\n", s.rejected.Load())
	fmt.Fprintf(w, "ovserve_requests_throttled_total %d\n", s.throttled.Load())
	fmt.Fprintf(w, "ovserve_requests_unauthorized_total %d\n", s.unauthed.Load())
	fmt.Fprintf(w, "ovserve_sims_total %d\n", s.simsTotal.Load())
	fmt.Fprintf(w, "ovserve_sim_insns_total %d\n", s.simInsns.Load())
	fmt.Fprintf(w, "ovserve_sweep_rows_total %d\n", s.sweepRows.Load())
	fmt.Fprintf(w, "ovserve_sweep_errors_total %d\n", s.sweepErrors.Load())
	jm := s.jobs.Metrics()
	fmt.Fprintf(w, "ovserve_jobs_submitted_total %d\n", jm.Submitted)
	fmt.Fprintf(w, "ovserve_jobs_shed_total %d\n", jm.Shed)
	fmt.Fprintf(w, "ovserve_jobs_done_total %d\n", jm.Done)
	fmt.Fprintf(w, "ovserve_jobs_failed_total %d\n", jm.Failed)
	fmt.Fprintf(w, "ovserve_jobs_canceled_total %d\n", jm.Canceled)
	fmt.Fprintf(w, "ovserve_jobs_preempted_total %d\n", jm.Preempted)
	fmt.Fprintf(w, "ovserve_jobs_panicked_total %d\n", jm.Panicked)
	fmt.Fprintf(w, "ovserve_jobs_queued %d\n", jm.Queued)
	fmt.Fprintf(w, "ovserve_jobs_running %d\n", jm.Running)
	fmt.Fprintf(w, "ovserve_checkpoints_saved_total %d\n", s.ckSaved.Load())
	fmt.Fprintf(w, "ovserve_checkpoints_resumed_total %d\n", s.ckResumed.Load())
	fmt.Fprintf(w, "ovserve_warm_preloaded %d\n", s.warmLoaded.Load())
	writeCacheMetrics(w, "result", s.results.MemStats())
	writeCacheMetrics(w, "trace", simcache.TraceStats())
	s.writeStoreMetrics(w)
	if om {
		// The OpenMetrics exposition is invalid without its terminator.
		fmt.Fprintf(w, "# EOF\n")
	}
}

func writeCacheMetrics(w http.ResponseWriter, name string, st simcache.Stats) {
	fmt.Fprintf(w, "ovserve_%s_cache_hits_total %d\n", name, st.Hits)
	fmt.Fprintf(w, "ovserve_%s_cache_misses_total %d\n", name, st.Misses)
	fmt.Fprintf(w, "ovserve_%s_cache_dedups_total %d\n", name, st.Dedups)
	fmt.Fprintf(w, "ovserve_%s_cache_evictions_total %d\n", name, st.Evictions)
	fmt.Fprintf(w, "ovserve_%s_cache_entries %d\n", name, st.Entries)
	fmt.Fprintf(w, "ovserve_%s_cache_bytes %d\n", name, st.Bytes)
}

// writeStoreMetrics renders the durable disk tier's gauges. The enabled
// flag is always present so dashboards can tell "no store" from "store
// with zero traffic"; the rest only when a store is configured.
func (s *Server) writeStoreMetrics(w http.ResponseWriter) {
	if s.store == nil {
		fmt.Fprintf(w, "ovserve_store_enabled 0\n")
		return
	}
	fmt.Fprintf(w, "ovserve_store_enabled 1\n")
	st := s.store.Stats()
	fmt.Fprintf(w, "ovserve_store_hits_total %d\n", st.Hits)
	fmt.Fprintf(w, "ovserve_store_misses_total %d\n", st.Misses)
	fmt.Fprintf(w, "ovserve_store_writes_total %d\n", st.Writes)
	fmt.Fprintf(w, "ovserve_store_write_errors_total %d\n", st.WriteErrors)
	fmt.Fprintf(w, "ovserve_store_corrupt_total %d\n", st.Corrupt)
	fmt.Fprintf(w, "ovserve_store_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(w, "ovserve_store_scrubbed_total %d\n", st.Scrubbed)
	fmt.Fprintf(w, "ovserve_store_bytes %d\n", st.Bytes)
	fmt.Fprintf(w, "ovserve_store_files %d\n", st.Files)
}

// SimsRun returns the number of simulations executed (not served from
// cache) since startup — the counter behind ovserve_sims_total.
func (s *Server) SimsRun() int64 { return s.simsTotal.Load() }

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// decodeBody reads a size-limited JSON body, writing the error response
// itself on failure: 413 when the body exceeds MaxUploadBytes (the bound
// protecting the trace upload path), 400 for malformed JSON.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxUploadBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
		} else {
			httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		}
		return false
	}
	return true
}
