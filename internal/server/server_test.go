package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"oovec/internal/cli"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/simcache"
	"oovec/internal/sweep"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

// testInsns keeps handler-test simulations fast.
const testInsns = 1000

func newTestServer(t *testing.T) *Server {
	t.Helper()
	return New(Opts{Workers: 2})
}

// post drives one request through the handler stack and returns the
// recorder.
func post(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// metricValue scrapes one counter out of the /metrics exposition.
func metricValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	body := get(t, s, "/metrics").Body.String()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, body)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSimGoldenJSON locks the /v1/sim response down to the byte: the body
// must be exactly the JSON encoding of (key, cached, metrics) where metrics
// is the same RunStats the library API returns — the server adds transport,
// never arithmetic.
func TestSimGoldenJSON(t *testing.T) {
	s := newTestServer(t)
	req := SimRequest{
		Bench:   "swm256",
		Insns:   testInsns,
		Machine: "ooo",
		Config:  SimConfig{VRegs: 32, Latency: 20, Commit: "late", Elim: "sle"},
	}

	rec := post(t, s, "/v1/sim", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}

	// The golden body, built from first principles: the canonical cache key
	// and a direct library-API simulation.
	p, _ := tgen.PresetByName("swm256")
	p.Insns = testInsns
	cfg, err := req.Config.OOOConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := SimResponse{
		Key:     simcache.ResultKey(simcache.OOOConfigKey(cfg), simcache.PresetKey(p)),
		Cached:  false,
		Metrics: ooosim.Run(tgen.Generate(p), cfg).Stats,
	}
	golden, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimRight(rec.Body.String(), "\n"); got != string(golden) {
		t.Errorf("response body:\n%s\nwant golden:\n%s", got, golden)
	}
}

// TestSimCacheHitRunsZeroSims is the acceptance criterion: a repeated
// identical request is a cache hit that performs zero new simulations,
// observed through the ovserve_sims_total counter in /metrics.
func TestSimCacheHitRunsZeroSims(t *testing.T) {
	s := newTestServer(t)
	req := SimRequest{Bench: "trfd", Insns: testInsns}

	rec := post(t, s, "/v1/sim", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var first SimResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported cached=true")
	}
	if n := metricValue(t, s, "ovserve_sims_total"); n != 1 {
		t.Fatalf("sims_total = %d after first request, want 1", n)
	}

	rec = post(t, s, "/v1/sim", req)
	var second SimResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeated request was not a cache hit")
	}
	if second.Key != first.Key {
		t.Errorf("key changed across identical requests: %s vs %s", first.Key, second.Key)
	}
	if !reflect.DeepEqual(first.Metrics, second.Metrics) {
		t.Error("cached metrics differ from the original run")
	}
	if n := metricValue(t, s, "ovserve_sims_total"); n != 1 {
		t.Errorf("sims_total = %d after repeat, want 1 (cache hit must run zero simulations)", n)
	}
	if hits := metricValue(t, s, "ovserve_result_cache_hits_total"); hits != 1 {
		t.Errorf("result cache hits = %d, want 1", hits)
	}
}

// TestSimConfigDefaultsShareEntry: omitted fields and explicit paper
// defaults are the same simulation, so they must share one cache entry.
func TestSimConfigDefaultsShareEntry(t *testing.T) {
	s := newTestServer(t)
	implicit := post(t, s, "/v1/sim", SimRequest{Bench: "trfd", Insns: testInsns})
	explicit := post(t, s, "/v1/sim", SimRequest{
		Bench: "trfd", Insns: testInsns,
		Config: SimConfig{VRegs: 16, Queues: 16, Latency: 50, Commit: "early", Elim: "none"},
	})
	var a, b SimResponse
	json.Unmarshal(implicit.Body.Bytes(), &a)
	json.Unmarshal(explicit.Body.Bytes(), &b)
	if a.Key != b.Key {
		t.Errorf("defaulted and explicit configs got different keys: %s vs %s", a.Key, b.Key)
	}
	if !b.Cached {
		t.Error("explicit-defaults request missed the cache")
	}
}

// TestSimRefMachine checks the reference-machine path against the library
// API.
func TestSimRefMachine(t *testing.T) {
	s := newTestServer(t)
	rec := post(t, s, "/v1/sim", SimRequest{
		Bench: "bdna", Insns: testInsns, Machine: "ref",
		Config: SimConfig{Latency: 20},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp SimResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	p, _ := tgen.PresetByName("bdna")
	p.Insns = testInsns
	cfg := refsim.DefaultConfig()
	cfg.MemLatency = 20
	want := refsim.Run(tgen.Generate(p), cfg)
	if !reflect.DeepEqual(resp.Metrics, want) {
		t.Errorf("ref metrics differ from direct run:\ngot  %+v\nwant %+v", resp.Metrics, want)
	}
}

// TestSimUploadedTrace round-trips an OVTR upload: the served metrics must
// equal a direct simulation of the same trace, and re-uploading identical
// bytes must hit the content-addressed cache.
func TestSimUploadedTrace(t *testing.T) {
	s := newTestServer(t)
	p, _ := tgen.PresetByName("hydro2d")
	p.Insns = testInsns
	tr := tgen.Generate(p)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}

	req := SimRequest{Trace: buf.Bytes(), Config: SimConfig{VRegs: 12}}
	rec := post(t, s, "/v1/sim", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp SimResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	cfg := ooosim.DefaultConfig()
	cfg.PhysVRegs = 12
	want := ooosim.Run(tr, cfg).Stats
	if !reflect.DeepEqual(resp.Metrics, want) {
		t.Errorf("uploaded-trace metrics differ from direct run")
	}

	rec = post(t, s, "/v1/sim", req)
	var again SimResponse
	json.Unmarshal(rec.Body.Bytes(), &again)
	if !again.Cached {
		t.Error("re-uploading identical trace bytes missed the content-addressed cache")
	}
}

// TestSweepNDJSON is the ovsweep parity test: the streamed rows must decode
// to exactly the points sweep.Run produces serially for the same spec —
// same values, same order — which makes the NDJSON byte-convertible to the
// CLI's CSV.
func TestSweepNDJSON(t *testing.T) {
	s := newTestServer(t)
	req := SweepRequest{
		Bench:   []string{"swm256", "trfd"},
		Machine: "both",
		Regs:    []int{12, 16},
		Lats:    []int64{1, 20},
		Insns:   testInsns,
	}
	rec := post(t, s, "/v1/sweep", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}

	var got []sweep.Point
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var p sweep.Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("decoding row %d: %v", len(got), err)
		}
		got = append(got, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// The reference: the exact grids ovsweep runs for the same spec,
	// serially and uncached.
	var want []sweep.Point
	err := sweep.Run(req, sweep.Opts{Workers: 1}, func(pts []sweep.Point) error {
		want = append(want, pts...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep rows differ from serial CLI grids:\ngot  %d rows %+v\nwant %d rows %+v",
			len(got), got, len(want), want)
	}

	// And therefore the CSV renderings are byte-identical.
	var gotCSV, wantCSV bytes.Buffer
	if err := sweep.WriteCSV(&gotCSV, got); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteCSV(&wantCSV, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Error("CSV rendering of streamed rows differs from the CLI's")
	}

	if rows := metricValue(t, s, "ovserve_sweep_rows_total"); rows != int64(len(want)) {
		t.Errorf("sweep_rows_total = %d, want %d", rows, len(want))
	}
}

// TestSimSingleflight drives concurrent identical requests at the handler
// and asserts exactly one simulation runs — the singleflight guarantee,
// meaningful under -race.
func TestSimSingleflight(t *testing.T) {
	s := newTestServer(t)
	req := SimRequest{Bench: "su2cor", Insns: testInsns}

	const goroutines = 16
	var wg sync.WaitGroup
	responses := make([]SimResponse, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := post(t, s, "/v1/sim", req)
			if rec.Code != http.StatusOK {
				t.Errorf("goroutine %d: status %d", g, rec.Code)
				return
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &responses[g]); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()

	if n := s.SimsRun(); n != 1 {
		t.Errorf("%d simulations ran for %d concurrent identical requests, want 1", n, goroutines)
	}
	fillers := 0
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(responses[g].Metrics, responses[0].Metrics) {
			t.Errorf("goroutine %d saw different metrics", g)
		}
		if !responses[g].Cached {
			fillers++
		}
	}
	if !responses[0].Cached {
		fillers++
	}
	if fillers != 1 {
		t.Errorf("%d responses reported cached=false, want exactly 1", fillers)
	}
}

func TestPresetsAndHealthz(t *testing.T) {
	s := newTestServer(t)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Errorf("healthz status %d", rec.Code)
	}
	rec = get(t, s, "/v1/presets")
	if rec.Code != http.StatusOK {
		t.Fatalf("presets status %d", rec.Code)
	}
	var ps []tgen.Preset
	if err := json.Unmarshal(rec.Body.Bytes(), &ps); err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(tgen.Presets()) {
		t.Errorf("presets returned %d entries, want %d", len(ps), len(tgen.Presets()))
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t)
	p, _ := tgen.PresetByName("trfd")
	p.Insns = 200
	var upload bytes.Buffer
	if err := trace.Write(&upload, tgen.Generate(p)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  SimRequest
	}{
		{"no input", SimRequest{}},
		{"unknown bench", SimRequest{Bench: "nosuch"}},
		{"both inputs", SimRequest{Bench: "trfd", Trace: []byte("OVTR")}},
		{"bad machine", SimRequest{Bench: "trfd", Machine: "vliw"}},
		{"too few vregs", SimRequest{Bench: "trfd", Config: SimConfig{VRegs: 4}}},
		{"vregs 8", SimRequest{Bench: "trfd", Config: SimConfig{VRegs: 8}}},
		{"negative latency", SimRequest{Bench: "trfd", Config: SimConfig{Latency: -1}}},
		{"negative ref latency", SimRequest{Bench: "trfd", Machine: "ref", Config: SimConfig{Latency: -5}}},
		{"bad commit", SimRequest{Bench: "trfd", Config: SimConfig{Commit: "sideways"}}},
		{"ooo fields on ref", SimRequest{Bench: "trfd", Machine: "ref", Config: SimConfig{VRegs: 16}}},
		{"corrupt upload", SimRequest{Trace: []byte("not an OVTR trace")}},
		{"insns beside an upload", SimRequest{Trace: upload.Bytes(), Insns: 100}},
		{"vregs past the limit", SimRequest{Bench: "trfd", Config: SimConfig{VRegs: cli.MaxStructure + 1}}},
		{"queues past the limit", SimRequest{Bench: "trfd", Config: SimConfig{Queues: cli.MaxStructure + 1}}},
	}
	for _, tc := range cases {
		if rec := post(t, s, "/v1/sim", tc.req); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, rec.Code, rec.Body)
		}
		if rec := post(t, s, "/v1/jobs", JobRequest{Sim: tc.req}); rec.Code != http.StatusBadRequest {
			t.Errorf("%s as a job: status %d, want 400 (%s)", tc.name, rec.Code, rec.Body)
		}
	}
	if n := metricValue(t, s, "ovserve_sims_total"); n != 0 {
		t.Errorf("sims_total = %d after rejected requests, want 0", n)
	}
	if rec := post(t, s, "/v1/sweep", SweepRequest{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty sweep: status %d, want 400", rec.Code)
	}
	if rec := post(t, s, "/v1/sweep", SweepRequest{Bench: []string{"trfd"}, Lats: []int64{0}}); rec.Code != http.StatusBadRequest {
		t.Errorf("zero latency sweep: status %d, want 400", rec.Code)
	}
	if rec := post(t, s, "/v1/sweep", SweepRequest{Bench: []string{"trfd"}, Regs: []int{cli.MaxStructure + 1}}); rec.Code != http.StatusBadRequest {
		t.Errorf("sweep regs past the limit: status %d, want 400", rec.Code)
	}
	// Method mismatches.
	if rec := get(t, s, "/v1/sim"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sim: status %d, want 405", rec.Code)
	}
}

// TestPresetInsnsBound: a preset instruction budget above the trace limit
// is refused with 400 on every route that generates a trace, before any
// generation or simulation.
func TestPresetInsnsBound(t *testing.T) {
	s := newTestServer(t)
	huge := SimRequest{Bench: "swm256", Insns: 1 << 30}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/sim", huge},
		{"/v1/jobs", JobRequest{Sim: huge}},
		{"/v1/sweep", SweepRequest{Bench: []string{"swm256"}, Insns: 1 << 30}},
	} {
		rec := post(t, s, c.path, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.path, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "max-insns") {
			t.Errorf("%s: error %s does not name the limit", c.path, rec.Body)
		}
		if n := metricValue(t, s, "ovserve_sims_total"); n != 0 {
			t.Errorf("%s: sims_total = %d, want 0", c.path, n)
		}
	}
}

// TestUploadTooLarge bounds the upload path.
func TestUploadTooLarge(t *testing.T) {
	s := New(Opts{MaxUploadBytes: 1024})
	big := SimRequest{Trace: bytes.Repeat([]byte{0xab}, 4096)}
	rec := post(t, s, "/v1/sim", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", rec.Code)
	}
}

// TestUploadInsnLimit: a trace whose header claims more instructions than
// the configured bound is rejected cleanly.
func TestUploadInsnLimit(t *testing.T) {
	s := New(Opts{TraceLimits: trace.Limits{MaxInsns: 10}})
	p, _ := tgen.PresetByName("swm256")
	p.Insns = 500
	var buf bytes.Buffer
	if err := trace.Write(&buf, tgen.Generate(p)); err != nil {
		t.Fatal(err)
	}
	rec := post(t, s, "/v1/sim", SimRequest{Trace: buf.Bytes()})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400", rec.Code)
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "limit") {
		t.Errorf("error %q does not mention the limit", e.Error)
	}
}
