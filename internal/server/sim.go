package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"

	"oovec/internal/cli"
	"oovec/internal/metrics"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/sim"
	"oovec/internal/simcache"
	"oovec/internal/span"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// SimRequest is the body of POST /v1/sim. Exactly one of Bench and Trace
// selects the input: Bench names a built-in preset, Trace carries an
// uploaded OVTR file (base64 in JSON).
type SimRequest struct {
	// Bench is a benchmark preset name (see /v1/presets).
	Bench string `json:"bench,omitempty"`
	// Trace is a serialised OVTR trace, base64-encoded.
	Trace []byte `json:"trace,omitempty"`
	// Insns overrides the preset's dynamic instruction budget (presets
	// only; 0 keeps the preset's own budget).
	Insns int `json:"insns,omitempty"`
	// Machine selects the simulator: "ooo" (default) or "ref".
	Machine string `json:"machine,omitempty"`
	// Config parameterises the machine; zero fields take the paper's
	// defaults.
	Config SimConfig `json:"config"`
}

// SimConfig is the machine configuration surface of the API, shared with
// the ovsim flags: zero fields keep the paper's defaults.
type SimConfig = cli.SimConfig

// SimResponse is the body of a successful POST /v1/sim.
type SimResponse struct {
	// Key is the content address of this (machine, config, trace) triple in
	// the result cache.
	Key string `json:"key"`
	// Cached reports whether the metrics came from the cache (no new
	// simulation ran for this request).
	Cached bool `json:"cached"`
	// Metrics are the run's measurements — the same struct the CLIs print.
	Metrics *metrics.RunStats `json:"metrics"`
}

// loadTrace resolves the request's input trace into a content key and a
// lazy getter. The getter defers preset generation into the result-cache
// fill, so a result-cache hit is a pure lookup even when the shared trace
// cache has since evicted the trace. Uploads decode eagerly — the bytes
// must be validated and digested either way.
func (s *Server) loadTrace(req *SimRequest) (func() *trace.Trace, string, error) {
	switch {
	case req.Bench != "" && len(req.Trace) > 0:
		return nil, "", errors.New("bench and trace are mutually exclusive")
	case req.Bench != "":
		p, ok := tgen.PresetByName(req.Bench)
		if !ok {
			return nil, "", fmt.Errorf("unknown benchmark %q (see /v1/presets)", req.Bench)
		}
		if req.Insns < 0 {
			return nil, "", errors.New("insns must be non-negative")
		}
		if err := s.checkInsns(req.Insns); err != nil {
			return nil, "", err
		}
		if req.Insns > 0 {
			p.Insns = req.Insns
		}
		// The preset is the content: generation is deterministic, so the
		// canonical preset string addresses the same trace bytes a digest
		// would, without generating first.
		return func() *trace.Trace { return simcache.GenerateTrace(p) }, simcache.PresetKey(p), nil
	case len(req.Trace) > 0:
		t, err := trace.ReadLimited(bytes.NewReader(req.Trace), s.traceLimits)
		if err != nil {
			return nil, "", fmt.Errorf("decoding uploaded trace: %w", err)
		}
		return func() *trace.Trace { return t }, "ovtr:" + trace.Digest(t), nil
	}
	return nil, "", errors.New("one of bench or trace is required")
}

// checkInsns bounds a preset's instruction-budget override by the upload
// limit (-max-insns): generation materialises every instruction before the
// run, so an unbounded budget would let one request exhaust the daemon's
// memory.
func (s *Server) checkInsns(n int) error {
	if n > s.traceLimits.MaxInsns {
		return fmt.Errorf("insns %d exceeds the server's limit of %d (-max-insns)", n, s.traceLimits.MaxInsns)
	}
	return nil
}

// simPlan is a fully resolved simulation request: the content-address key
// plus runners for both execution modes. handleSim uses the plain run; the
// async job layer (jobs.go) uses the checkpointable one.
type simPlan struct {
	key   string
	run   func(context.Context) *metrics.RunStats
	runCk ckRunner
}

// ckRunner executes a checkpointable simulation. resume, when non-empty,
// is an encoded checkpoint to continue from (silently ignored when it does
// not decode or belongs to a different trace — the run then starts fresh
// rather than failing; one that decodes but does not fit the machine fails
// the run). On completion it returns (stats, nil, traceLen, nil); on
// cancellation (nil, encoded checkpoint, next instruction, ctx error).
type ckRunner func(ctx context.Context, resume []byte, ckEvery int, cb ckCallbacks) (*metrics.RunStats, []byte, int, error)

// ckCallbacks observe a checkpointable run: onStart reports the resume
// position and total before simulation begins, onProgress the instruction
// count at the abort-check cadence, onCheckpoint each periodic encoded
// checkpoint.
type ckCallbacks struct {
	onStart      func(start, total int)
	onProgress   func(done int)
	onCheckpoint func(b []byte)
}

// planSim resolves a SimRequest into a simPlan, validating exactly what
// handleSim always validated. The key construction (simcache keys.go — the
// same scheme sweep grid points use, so single runs, jobs and sweeps share
// entries) keys on the resolved (WithDefaults) form, so explicit defaults
// and omitted fields share one cache entry.
func (s *Server) planSim(req *SimRequest) (*simPlan, error) {
	getTrace, traceKey, err := s.loadTrace(req)
	if err != nil {
		return nil, err
	}
	switch req.Machine {
	case "", "ooo":
		cfg, err := req.Config.OOOConfig()
		if err != nil {
			return nil, err
		}
		key := simcache.ResultKey(simcache.OOOConfigKey(cfg), traceKey)
		return newSimPlan("OOOVA", key, getTrace, &s.oooPool, cfg, ooosim.DecodeCheckpoint,
			func(r *ooosim.Result) *metrics.RunStats { return r.Stats }), nil
	case "ref":
		cfg, err := req.Config.RefConfig()
		if err != nil {
			return nil, err
		}
		key := simcache.ResultKey(simcache.RefConfigKey(cfg), traceKey)
		return newSimPlan("REF", key, getTrace, &s.refPool, cfg, refsim.DecodeCheckpoint,
			func(st *metrics.RunStats) *metrics.RunStats { return st }), nil
	default:
		return nil, fmt.Errorf("unknown machine %q (ooo | ref)", req.Machine)
	}
}

// simMachine is what the plan body needs of a simulator's Machine: pooled
// reset plus the checkpointable run.
type simMachine[Cfg any, C sim.Checkpoint, R any] interface {
	Reset(Cfg)
	RunCheckpointed(*trace.Trace, sim.Opts[C]) (R, C, error)
}

// encodedCheckpoint is a checkpoint handle with its machine's gob encoding.
type encodedCheckpoint interface {
	sim.Checkpoint
	Encode() ([]byte, error)
}

// newSimPlan builds both runners of a plan over one machine model: machine
// names it in spans, pool supplies machines reset to cfg, decode reads a
// resumed checkpoint and stats extracts the measurements from a result.
func newSimPlan[Cfg any, M simMachine[Cfg, C, R], C encodedCheckpoint, R any](
	machine, key string, getTrace func() *trace.Trace, pool *sim.Pool[Cfg, M], cfg Cfg,
	decode func([]byte) (C, error), stats func(R) *metrics.RunStats,
) *simPlan {
	runCk := func(ctx context.Context, resume []byte, ckEvery int, cb ckCallbacks) (*metrics.RunStats, []byte, int, error) {
		t := getTrace()
		var res, none C
		start := 0
		if len(resume) > 0 {
			if ck, err := decode(resume); err == nil {
				if next, n := ck.Position(); n == t.Len() {
					res, start = ck, next
				}
			}
		}
		if cb.onStart != nil {
			cb.onStart(start, t.Len())
		}
		// One span per checkpointable leg: a resumed job shows one simulate
		// span per segment, each attributed with the resume position and
		// the instructions it actually executed.
		sp, ctx := span.Start(ctx, "simulate")
		sp.SetAttr("machine", machine)
		sp.SetInt("resume_from", int64(start))
		defer sp.End()
		m := pool.Get(cfg)
		defer pool.Put(m)
		r, stop, err := m.RunCheckpointed(t, sim.Opts[C]{
			Ctx:             ctx,
			CheckpointEvery: ckEvery,
			OnCheckpoint: func(ck C) {
				if b, err := ck.Encode(); err == nil {
					cb.onCheckpoint(b)
				}
			},
			OnProgress: cb.onProgress,
			Resume:     res,
		})
		if err != nil {
			var b []byte
			next := start
			if stop != none {
				b, _ = stop.Encode()
				next, _ = stop.Position()
			}
			sp.SetAttr("outcome", "parked")
			sp.SetInt("insns", int64(next-start))
			return nil, b, next, err
		}
		st := stats(r)
		sp.SetInt("insns", st.Instructions)
		sp.SetInt("cycles", st.Cycles)
		return st, nil, t.Len(), nil
	}
	// The plain run is a checkpointable one that nothing can cancel: the
	// result-cache fill it serves is shared by every waiter on the key.
	run := func(ctx context.Context) *metrics.RunStats {
		st, _, _, _ := runCk(context.WithoutCancel(ctx), nil, 0, ckCallbacks{})
		return st
	}
	return &simPlan{key: key, run: run, runCk: runCk}
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	plan, err := s.planSim(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, cached := s.results.DoCtx(r.Context(), plan.key, func(ctx context.Context) *metrics.RunStats {
		s.simsTotal.Add(1)
		return plan.run(ctx)
	})
	writeJSON(w, http.StatusOK, SimResponse{Key: plan.key, Cached: cached, Metrics: st})
}
