package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"oovec/internal/engine"
	"oovec/internal/sweep"
)

// SweepStatusTrailer is the HTTP trailer /v1/sweep sets once the stream
// ends. Streaming commits the 200 status before the grid runs, so the
// trailer is the only in-band place a terminal outcome fits: "ok" when
// every row was delivered, "error" when the stream was cut short by a
// failure or deadline (the last NDJSON line is then an {"error": ...}
// record), "canceled" when the client went away first.
const SweepStatusTrailer = "X-Ovserve-Sweep-Status"

// SweepRequestIDTrailer repeats the request id at the end of the stream, so
// a client that only kept the tail of a long NDJSON response (or a proxy
// log that strips headers) can still join the stream to the server log. The
// name is deliberately NOT RequestIDHeader: net/http removes any key
// declared in "Trailer" from the normal header section, so reusing
// X-Request-Id here would strip the id the middleware already set on the
// response headers.
const SweepRequestIDTrailer = "X-Ovserve-Sweep-Request-Id"

// sweepErrorRecord is the final NDJSON line of an aborted stream:
// distinguishable from sweep.Point rows by its "error" key, and carrying
// the request id so the record alone is enough to find the server-side
// "sweep aborted" log line.
type sweepErrorRecord struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: the grid surface of the
// ovsweep CLI, validated and run by package sweep. Results stream back as
// NDJSON, one sweep.Point per line, in exactly the row order ovsweep writes
// CSV, regardless of how many workers the grid fans across.
type SweepRequest = sweep.Spec

// errClientGone stops a sweep whose client stopped reading the stream.
var errClientGone = errors.New("client gone")

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	err := req.Resolve()
	if err == nil {
		err = s.checkInsns(req.Insns)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	w.Header().Set("Trailer", SweepStatusTrailer)
	w.Header().Add("Trailer", SweepRequestIDTrailer)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	row := 0
	emit := func(pts []sweep.Point) error {
		for i := range pts {
			if err := enc.Encode(&pts[i]); err != nil {
				return errClientGone
			}
			if flusher != nil {
				flusher.Flush()
			}
			s.sweepRows.Add(1)
			if s.testHookSweepRow != nil {
				s.testHookSweepRow(row)
			}
			row++
		}
		return nil
	}

	// sweep.Run streams the grids benchmark by benchmark. Every grid point
	// goes through the same content-addressed result cache as /v1/sim
	// (sweep.Opts.Cache), so a repeated sweep is a streamed sequence of
	// cache hits running zero new simulations, an overlapping sweep only
	// simulates its delta, and only actual simulations count toward
	// ovserve_sims_total. The request context cancels the grid between
	// points: a dropped client or an expired Opts.Timeout deadline stops
	// burning workers.
	opts := sweep.Opts{
		Workers: s.workers,
		Cache:   s.results,
		Ctx:     r.Context(),
		OnSim: func() {
			s.simsTotal.Add(1)
			if s.testHookSweepSim != nil {
				s.testHookSweepSim()
			}
		},
	}
	err = runSweep(req, opts, emit)

	// Streaming committed the 200 long ago, so the terminal outcome rides
	// in the trailer — plus, when someone is still listening, a final
	// NDJSON error record, distinguishable from sweep.Point rows by its
	// "error" key.
	rid := RequestID(r.Context())
	w.Header().Set(SweepRequestIDTrailer, rid)
	switch {
	case errors.Is(err, errClientGone) || errors.Is(err, context.Canceled):
		w.Header().Set(SweepStatusTrailer, "canceled")
	case err == nil:
		w.Header().Set(SweepStatusTrailer, "ok")
	default:
		s.sweepErrors.Add(1)
		// The terminal error rode out in a trailer and one NDJSON line the
		// client may never read; the log line is the operator's copy.
		if s.log != nil {
			s.log.Error("sweep aborted",
				"request_id", rid,
				"rows", row,
				"error", err.Error())
		}
		enc.Encode(sweepErrorRecord{
			Error:     fmt.Sprintf("sweep aborted after %d rows: %v", row, err),
			RequestID: rid,
		})
		if flusher != nil {
			flusher.Flush()
		}
		w.Header().Set(SweepStatusTrailer, "error")
	}
}

// runSweep runs the request's grids, converting a panicking grid point
// (engine.WorkerPanic from the pool, or a native panic from a serial grid)
// into an error so the handler can report it in-stream instead of tearing
// the connection down mid-NDJSON.
func runSweep(req SweepRequest, opts sweep.Opts, emit func([]sweep.Point) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if wp, ok := rec.(engine.WorkerPanic); ok {
				err = fmt.Errorf("grid point %d failed: %v", wp.Index, wp.Value)
			} else {
				err = fmt.Errorf("grid point failed: %v", rec)
			}
		}
	}()
	return sweep.Run(req, opts, emit)
}
