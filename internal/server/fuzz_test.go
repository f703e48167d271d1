package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"oovec/internal/cli"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// FuzzRequestBodies feeds arbitrary bodies to the validation path of the
// three simulating routes: the JSON decode, then planSim for /v1/sim and
// /v1/jobs, and Spec.Resolve plus checkInsns for /v1/sweep. Nothing is
// simulated. Validation must never panic, and every request it accepts
// must stay within cli.MaxStructure and the server's -max-insns.
func FuzzRequestBodies(f *testing.F) {
	const maxInsns = 100_000
	s := New(Opts{Workers: 1, TraceLimits: trace.Limits{MaxInsns: maxInsns}})

	p, _ := tgen.PresetByName("trfd")
	p.Insns = 50
	var upload bytes.Buffer
	if err := trace.Write(&upload, tgen.Generate(p)); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []any{
		SimRequest{Bench: "trfd", Insns: 2000, Config: SimConfig{VRegs: 32, Queues: 128, Commit: "late", Elim: "sle+vle"}},
		SimRequest{Bench: "bdna", Machine: "ref", Config: SimConfig{Latency: 100}},
		SimRequest{Bench: "trfd", Config: SimConfig{VRegs: 2_000_000_000}},
		SimRequest{Bench: "trfd", Config: SimConfig{ROB: cli.MaxStructure, CommitWidth: cli.MaxStructure + 1}},
		SimRequest{Trace: upload.Bytes()},
		SimRequest{Trace: upload.Bytes(), Insns: 10},
		JobRequest{Sim: SimRequest{Bench: "swm256", Insns: 1 << 30}, CheckpointInsns: 500},
		SweepRequest{Bench: []string{"trfd"}, Machine: "both", Regs: []int{9, 1 << 31}, Lats: []int64{1, 50}},
		SweepRequest{Bench: []string{"swm256"}, Insns: maxInsns + 1},
	} {
		b, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"sim":{"bench":"trfd","config":{"queues":-1}}}`))
	f.Add([]byte(`{"bench":"trfd","insns":1e99}`))

	decode := func(body []byte, v any) bool {
		r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
		return s.decodeBody(httptest.NewRecorder(), r, v)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sim SimRequest
		if decode(body, &sim) {
			if _, err := s.planSim(&sim); err == nil {
				checkAcceptedSim(t, s, &sim, maxInsns)
			}
		}
		var job JobRequest
		if decode(body, &job) {
			if _, err := s.planSim(&job.Sim); err == nil {
				checkAcceptedSim(t, s, &job.Sim, maxInsns)
			}
		}
		var sweep SweepRequest
		if decode(body, &sweep) && sweep.Resolve() == nil && s.checkInsns(sweep.Insns) == nil {
			if sweep.Insns > maxInsns {
				t.Errorf("accepted sweep insns %d past the limit %d", sweep.Insns, maxInsns)
			}
			if sweep.Machine != "ref" {
				for _, r := range sweep.Regs {
					if r > cli.MaxStructure {
						t.Errorf("accepted sweep regs %d past the limit %d", r, cli.MaxStructure)
					}
				}
			}
		}
	})
}

// checkAcceptedSim fails t unless a request planSim accepted stays within
// the structural bound and the instruction limit.
func checkAcceptedSim(t *testing.T, s *Server, req *SimRequest, maxInsns int) {
	t.Helper()
	c := req.Config
	if m := max(c.VRegs, c.Queues, c.ROB, c.CommitWidth); m > cli.MaxStructure {
		t.Errorf("accepted config %+v: a structural size %d past the limit %d", c, m, cli.MaxStructure)
	}
	if req.Insns > maxInsns {
		t.Errorf("accepted insns %d past the limit %d", req.Insns, maxInsns)
	}
	if len(req.Trace) > 0 {
		if req.Insns != 0 {
			t.Errorf("accepted insns %d beside an uploaded trace", req.Insns)
		}
		// Uploads decode eagerly, so the getter hands back the decoded
		// trace without generating anything.
		getTrace, _, err := s.loadTrace(req)
		if err != nil {
			t.Fatalf("loadTrace rejected a request planSim accepted: %v", err)
		}
		if n := getTrace().Len(); n > maxInsns {
			t.Errorf("accepted an uploaded trace of %d instructions past the limit %d", n, maxInsns)
		}
	}
}
