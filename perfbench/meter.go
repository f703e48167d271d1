package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// meter is the load driver's HTTP transport. It times every request from
// the moment it is sent until its response body has been read to the end,
// so load.Drive's accounting, digest checks and job polling are reused
// while every latency sample stays exact (load.Report's percentiles come
// from coarse histogram buckets). Only POSTs are timed: job status polls and
// /metrics scrapes are not requests a user waits for.
//
// It also checks response bodies against a fill pass: in record mode it
// keeps each /v1/sim result's metrics and each sweep stream's digest, and
// in check mode every later response for the same key must match.
type meter struct {
	base http.RoundTripper

	mu     sync.Mutex
	timing bool
	lat    []float64 // milliseconds
	tr     *tracer

	record, check bool
	simWant       map[string]json.RawMessage // result key -> metrics
	sweepWant     map[string][sha256.Size]byte
	mismatches    int

	jobStart map[string]time.Time // traced: submit time by job id
	jobTurn  []float64            // traced: submit to done, ms
}

func newMeter(base http.RoundTripper) *meter {
	return &meter{
		base:      base,
		simWant:   map[string]json.RawMessage{},
		sweepWant: map[string][sha256.Size]byte{},
	}
}

// setChecks selects record and check mode for the following requests.
func (m *meter) setChecks(record, check bool) {
	m.mu.Lock()
	m.record, m.check = record, check
	m.mu.Unlock()
}

// start begins a timed phase; check compares bodies with the fill pass.
func (m *meter) start(tr *tracer, check bool) {
	m.mu.Lock()
	m.timing, m.tr, m.lat = true, tr, nil
	m.record, m.check = false, check
	m.jobStart, m.jobTurn = map[string]time.Time{}, nil
	m.mu.Unlock()
}

// take returns the latency samples recorded since the last take.
func (m *meter) take() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	lat := m.lat
	m.lat = nil
	return lat
}

// stop ends a timed phase.
func (m *meter) stop() {
	m.mu.Lock()
	m.timing, m.tr, m.lat = false, nil, nil
	m.mu.Unlock()
}

func (m *meter) takeMismatches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.mismatches
	m.mismatches = 0
	return n
}

func (m *meter) jobTurnaround() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobTurn
}

// Routes the meter tells apart.
const (
	routeOther = iota
	routeSim
	routeSweep
	routeJobSubmit
	routeJobPoll
)

func routeOf(r *http.Request) int {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/sim":
		return routeSim
	case r.Method == http.MethodPost && r.URL.Path == "/v1/sweep":
		return routeSweep
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return routeJobSubmit
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return routeJobPoll
	}
	return routeOther
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	b := &meteredBody{m: m, route: routeOf(req)}
	m.mu.Lock()
	b.tr, b.record, b.check = m.tr, m.record, m.check
	m.mu.Unlock()
	// The request body is needed to key a sweep's digest, and to tell OOOVA
	// from REF sims apart in a traced phase.
	if b.route == routeSweep || (b.route == routeSim && b.tr != nil) {
		if req.GetBody != nil {
			if rc, err := req.GetBody(); err == nil {
				b.reqBody, _ = io.ReadAll(rc)
				rc.Close()
			}
		}
	}
	if b.route == routeSweep {
		b.hash = sha256.New()
	}
	b.capture = (b.route == routeSim && (b.record || b.check)) ||
		((b.route == routeJobSubmit || b.route == routeJobPoll) && b.tr != nil)
	b.start = time.Now()
	resp, err := m.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	b.rc = resp.Body
	resp.Body = b
	return resp, nil
}

// meteredBody wraps a response body; reading it to the end finishes the
// request's measurement.
type meteredBody struct {
	m             *meter
	rc            io.ReadCloser
	route         int
	tr            *tracer
	record, check bool
	reqBody       []byte
	start         time.Time
	buf           []byte
	hash          hash.Hash
	capture       bool // keep the body for the checks in finish
	done          bool
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 {
		if b.hash != nil {
			b.hash.Write(p[:n])
		}
		if b.capture {
			b.buf = append(b.buf, p[:n]...)
		}
	}
	if err == io.EOF && !b.done {
		b.done = true
		b.finish(time.Now())
	}
	return n, err
}

func (b *meteredBody) Close() error { return b.rc.Close() }

func (b *meteredBody) finish(end time.Time) {
	m := b.m
	var (
		sim simBody
		job struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}
		simErr, jobErr error
		sum            [sha256.Size]byte
	)
	// Decoding happens outside the lock, so the connections do not
	// serialise on it.
	switch {
	case b.route == routeSim && b.capture:
		simErr = json.Unmarshal(b.buf, &sim)
	case b.route == routeSweep:
		copy(sum[:], b.hash.Sum(nil))
	case b.capture:
		jobErr = json.Unmarshal(b.buf, &job)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	switch b.route {
	case routeSim, routeSweep, routeJobSubmit:
		if m.timing {
			m.lat = append(m.lat, ms(end.Sub(b.start)))
		}
	}
	switch b.route {
	case routeSim:
		class := classOOO
		if bytes.Contains(b.reqBody, []byte(`"machine":"ref"`)) {
			class = classRef
		}
		b.tr.record("POST /v1/sim", class, 0, b.start, end)
		if b.capture {
			m.checkSim(&sim, simErr, b.record)
		}
	case routeSweep:
		b.tr.record("POST /v1/sweep", classSweep, 0, b.start, end)
		key := string(b.reqBody)
		if b.record {
			m.sweepWant[key] = sum
		} else if want, ok := m.sweepWant[key]; b.check && (!ok || want != sum) {
			fmt.Fprintf(os.Stderr, "perfbench: sweep stream differs from the fill pass for %s\n", key)
			m.mismatches++
		}
	case routeJobSubmit:
		b.tr.record("POST /v1/jobs", classJob, 0, b.start, end)
		if b.capture && jobErr == nil {
			m.jobStart[job.ID] = b.start
		}
	case routeJobPoll:
		if b.capture && jobErr == nil && job.State == "done" {
			if t, ok := m.jobStart[job.ID]; ok {
				m.jobTurn = append(m.jobTurn, ms(end.Sub(t)))
				delete(m.jobStart, job.ID)
			}
		}
	}
}

// simBody is the part of a /v1/sim response the checks read.
type simBody struct {
	Key     string          `json:"key"`
	Metrics json.RawMessage `json:"metrics"`
}

// checkSim records or compares one /v1/sim response's metrics. Called with
// m.mu held.
func (m *meter) checkSim(r *simBody, err error, record bool) {
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: undecodable /v1/sim response: %v\n", err)
		m.mismatches++
	case record:
		m.simWant[r.Key] = r.Metrics
	default:
		if want, ok := m.simWant[r.Key]; !ok || !bytes.Equal(want, r.Metrics) {
			fmt.Fprintf(os.Stderr, "perfbench: /v1/sim metrics for key %s differ from the fill pass\n", r.Key)
			m.mismatches++
		}
	}
}

// mixPoint describes the requests ranked around one percentile.
type mixPoint struct {
	value float64 // the percentile, ms
	class string  // the most common route around it
	share float64 // that route's share of the requests around it
}

// mixShares places the traced phase's p50 and p99 among the routes. Around
// each percentile's rank it takes the neighbouring requests (0.5% of all on
// each side, at least 5) and reports the share of the most common route
// among them: near 1 the percentile sits inside one route's cluster, near
// 1/2 on the boundary between two, where a small change in the op mix would
// move it from one cluster to the other.
func mixShares(tr *tracer) (p50, p99 mixPoint) {
	type sample struct {
		ms    float64
		route string
	}
	var all []sample
	tr.mu.Lock()
	for _, s := range tr.spans {
		switch s.Name {
		case "POST /v1/sim", "POST /v1/sweep", "POST /v1/jobs":
			all = append(all, sample{float64(s.DurNs) / 1e6, s.Name})
		}
	}
	tr.mu.Unlock()
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ms < all[j].ms })
	at := func(p float64) mixPoint {
		rank := int(math.Ceil(p/100*float64(len(all)))) - 1
		w := max(5, len(all)/200)
		lo, hi := max(0, rank-w), min(len(all), rank+w+1)
		count := map[string]int{}
		best := ""
		for _, s := range all[lo:hi] {
			count[s.route]++
			if best == "" || count[s.route] > count[best] {
				best = s.route
			}
		}
		return mixPoint{all[rank].ms, best, float64(count[best]) / float64(hi-lo)}
	}
	return at(50), at(99)
}
