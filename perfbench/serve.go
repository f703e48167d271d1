package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"oovec/internal/load"
	"oovec/internal/server"
	"oovec/internal/simcache"
	"oovec/internal/store"
	"oovec/internal/tgen"
)

// serveKind selects one of the three serve workloads.
type serveKind int

const (
	serveCold serveKind = iota
	serveWarm
	serveDisk
)

// The request population and op mix. README.md gives the reasons.
const (
	// simInsns is the trace budget of /v1/sim and /v1/jobs requests;
	// sweepInsns that of /v1/sweep grids. The budget is part of a result's
	// key, so no sweep point ever shares a key with a sim or a job.
	simInsns   = 4000
	sweepInsns = 3000
	// sweepPct and jobPct are the shares of all requests, in percent, that
	// are sweeps and jobs; refPct is the share of sims on the reference
	// machine. Only serve-cold sends jobs: on the replays, polling jobs to
	// completion put ~1.5% of the sub-millisecond requests into a 2-3 ms
	// tail, so p99 flipped between that tail and the sweep cluster.
	sweepPct = 4
	jobPct   = 1
	refPct   = 20

	// conns is the closed loop's connection count: nproc on the 2-core
	// machine the benchmark was sized on.
	conns = 2
	// coldRound is the number of requests in one serve-cold round;
	// replayLen is the length of the serve-warm and serve-disk schedule,
	// replayed once per round. A round ends when its last request and its
	// jobs have finished, so at most a round's jobs (one on serve-cold)
	// wait in the job queue.
	coldRound = 100
	replayLen = 500

	// cacheEntries and jobQueue mirror cmd/ovserve's flag defaults;
	// storeBytes is cli.RegisterCache's -cache-disk-bytes default.
	cacheEntries = 4096
	jobQueue     = 16
	storeBytes   = 256 << 20
	// diskCacheEntries is serve-disk's memory tier: one entry per shard, so
	// a replayed key is almost never still in memory.
	diskCacheEntries = 8

	// minOps is the fewest timed requests a serve phase accepts: p99 needs
	// at least ten samples above it.
	minOps = 1000

	// hitRatioCeiling is the highest result-cache hit ratio serve-cold
	// accepts: its keys never repeat, so any hit means it is not cold.
	hitRatioCeiling = 0.01
)

// Populations the serve requests are drawn from, without replacement, per
// program. Each is several times larger than the requests of any run.
var (
	oooRegs = intRange(9, 64)   // physical vector registers of /v1/sim OOOVA keys
	oooLats = intRange(1, 100)  // memory latencies of /v1/sim OOOVA keys
	refLats = intRange(1, 1000) // memory latencies of /v1/sim REF keys
	// Sweep grids are 4 registers x 4 latencies over disjoint runs of four,
	// on the four programs whose OOOVA cost per instruction is closest to the
	// median (670-830 ns on the machine the benchmark was sized on; the ten
	// range from 490 to 1550 ns). Sweeps set p99, and with them all of one
	// cost p99 does not depend on which programs a run happens to sweep.
	gridBenches = []string{"arc2d", "flo52", "hydro2d", "nasa7"}
	gridRegs    = 14 // runs of 9..64
	gridLats    = 50 // runs of 1..200
)

// gridSide is the side of a sweep grid; a sweep resolves gridSide^2 points.
const gridSide = 4

// quad returns the run of gridSide consecutive values starting at lo.
func quad(lo int) []int {
	return intRange(lo, lo+gridSide-1)
}

func intRange(lo, hi int) []int {
	s := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		s = append(s, v)
	}
	return s
}

// Op classes, for the exact mix of a block and the op-mix check.
const (
	classOOO   = "sim-ooo"
	classRef   = "sim-ref"
	classSweep = "sweep"
	classJob   = "job"
)

// request is one generated request with what the benchmark knows about it.
type request struct {
	req load.Request
	// insns is the simulated instructions of the results it delivers (a
	// job's once it is done); sims the results it resolves in the result
	// cache.
	insns int64
	sims  int
}

// keyGen builds blocks of requests. A block has the exact op mix, spreads
// each class evenly over the programs, and is shuffled; every key is drawn
// without replacement from a seeded shuffle of its program's population.
// Exact counts keep the seed from changing what a round costs: drawing each
// op by chance moved the sweep count of a 500-request schedule by ±20%.
type keyGen struct {
	rng     *rand.Rand
	benches []string
	// ooo, ref and grids hold, per program, the key indices not yet drawn.
	ooo, ref, grids [][]int
	// decks hold, per population, the programs not yet dealt this cycle.
	decks    map[string][]int
	traceLen map[string]int // "bench/insns" -> trace length
	seq      int
}

func newKeyGen(seed int64, traceLen map[string]int) *keyGen {
	g := &keyGen{
		rng:      rand.New(rand.NewSource(seed)),
		benches:  tgen.Names(),
		decks:    map[string][]int{},
		traceLen: traceLen,
	}
	for range g.benches {
		g.ooo = append(g.ooo, g.rng.Perm(len(oooRegs)*len(oooLats)))
		g.ref = append(g.ref, g.rng.Perm(len(refLats)))
	}
	for range gridBenches {
		g.grids = append(g.grids, g.rng.Perm(gridRegs*gridLats))
	}
	return g
}

var errExhausted = errors.New("request key population exhausted; lengthen the populations")

// deal returns the next program of a population's deck, reshuffling a new
// cycle of all n programs when the deck runs out.
func (g *keyGen) deal(deck string, n int) int {
	if len(g.decks[deck]) == 0 {
		g.decks[deck] = g.rng.Perm(n)
	}
	b := g.decks[deck][0]
	g.decks[deck] = g.decks[deck][1:]
	return b
}

// pop draws the next unused key index of one program's population.
func pop(keys *[]int) (int, error) {
	if len(*keys) == 0 {
		return 0, errExhausted
	}
	k := (*keys)[0]
	*keys = (*keys)[1:]
	return k, nil
}

// block returns n requests: sweepPct% sweeps, jobPct% jobs when jobs is
// set, and sims for the rest, refPct% of them on the reference machine.
func (g *keyGen) block(n int, jobs bool) ([]request, error) {
	counts := map[string]int{classSweep: n * sweepPct / 100}
	if jobs {
		counts[classJob] = n * jobPct / 100
	}
	sims := n - counts[classSweep] - counts[classJob]
	counts[classRef] = sims * refPct / 100
	counts[classOOO] = sims - counts[classRef]
	classes := make([]string, 0, n)
	for _, c := range []string{classOOO, classRef, classSweep, classJob} {
		for i := 0; i < counts[c]; i++ {
			classes = append(classes, c)
		}
	}
	g.rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	out := make([]request, 0, n)
	for _, c := range classes {
		r, err := g.draw(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// draw builds one request of class c with a key never drawn before.
func (g *keyGen) draw(c string) (request, error) {
	r := request{req: load.Request{Seq: g.seq}}
	g.seq++
	var body any
	switch c {
	case classSweep:
		b := g.deal("grid", len(gridBenches))
		k, err := pop(&g.grids[b])
		if err != nil {
			return r, err
		}
		sw := &server.SweepRequest{
			Bench: []string{gridBenches[b]}, Machine: "ooo", Insns: sweepInsns,
			Regs: quad(9 + gridSide*(k%gridRegs)),
		}
		for _, l := range quad(1 + gridSide*(k/gridRegs)) {
			sw.Lats = append(sw.Lats, int64(l))
		}
		r.req.Op, r.sims = load.OpSweep, gridSide*gridSide
		r.insns = int64(r.sims * g.traceLen[traceKey(gridBenches[b], sweepInsns)])
		body = sw
	case classRef:
		b := g.deal("ref", len(g.benches))
		k, err := pop(&g.ref[b])
		if err != nil {
			return r, err
		}
		r.req.Op, r.sims = load.OpSim, 1
		r.insns = int64(g.traceLen[traceKey(g.benches[b], simInsns)])
		body = &server.SimRequest{Bench: g.benches[b], Insns: simInsns, Machine: "ref",
			Config: server.SimConfig{Latency: int64(refLats[k])}}
	default: // classOOO, classJob
		b := g.deal("ooo", len(g.benches))
		k, err := pop(&g.ooo[b])
		if err != nil {
			return r, err
		}
		sim := server.SimRequest{Bench: g.benches[b], Insns: simInsns,
			Config: server.SimConfig{VRegs: oooRegs[k%len(oooRegs)], Latency: int64(oooLats[k/len(oooRegs)])}}
		r.sims = 1
		r.insns = int64(g.traceLen[traceKey(g.benches[b], simInsns)])
		if c == classJob {
			r.req.Op, body = load.OpJob, &server.JobRequest{Sim: sim}
		} else {
			r.req.Op, body = load.OpSim, &sim
		}
	}
	var err error
	r.req.Body, err = json.Marshal(body)
	return r, err
}

func traceKey(bench string, insns int) string { return bench + "/" + strconv.Itoa(insns) }

// liveServer is an in-process ovserve on a loopback listener.
type liveServer struct {
	srv   *server.Server
	store *store.Store
	hs    *http.Server
	url   string
	done  chan error
}

// startServer boots a server with cmd/ovserve's defaults, the given memory
// tier and, when storeDir is non-empty, a disk store there.
func startServer(entries int, storeDir string) (*liveServer, error) {
	l := &liveServer{done: make(chan error, 1)}
	opts := server.Opts{
		Workers:      0,
		CacheEntries: entries,
		JobWorkers:   1,
		JobQueue:     jobQueue,
		TraceSample:  1,
		TraceBuffer:  256,
	}
	if storeDir != "" {
		st, err := store.Open(storeDir, storeBytes)
		if err != nil {
			return nil, err
		}
		l.store, opts.Store = st, st
	}
	l.srv = server.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.srv.JobsClose()
		if l.store != nil {
			l.store.Close()
		}
		return nil, err
	}
	l.url = "http://" + ln.Addr().String()
	l.hs = &http.Server{Handler: l.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the server down in cmd/ovserve's order: drain (which closes
// the job layer), close the store (flushing write-behind saves), stop the
// listener, and wait for Serve to return.
func (l *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	if l.store != nil {
		l.store.Close()
	}
	if err := l.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	<-l.done
}

// serveWorkload drives an in-process server over loopback HTTP with conns
// closed-loop connections, one round of requests at a time.
type serveWorkload struct {
	kind serveKind
	seed int64
	dir  string

	traceLen  map[string]int
	gen       *keyGen
	replay    []request // serve-warm / serve-disk schedule
	transport *http.Transport
	meter     *meter
	client    *http.Client
	live      *liveServer
	// setupFailed counts output checks failed during set-up; the first
	// timed phase reports them.
	setupFailed int
}

func newServe(kind serveKind, seed int64, dir string) workload {
	w := &serveWorkload{kind: kind, seed: seed, dir: dir, traceLen: map[string]int{}}
	w.transport = &http.Transport{MaxIdleConnsPerHost: 16}
	w.meter = newMeter(w.transport)
	w.client = &http.Client{Transport: w.meter}
	return w
}

func (w *serveWorkload) close() {
	if w.live != nil {
		w.live.close()
		w.live = nil
	}
	w.transport.CloseIdleConnections()
}

// setup runs complete set-ups, each timed, and keeps the last server:
// trace generation, store open and server boot, plus on serve-warm and
// serve-disk the fill pass that makes the timed phase's keys cached.
func (w *serveWorkload) setup() ([]float64, error) {
	reps := setupReps
	if w.kind == serveCold {
		reps = cheapSetupReps
	}
	var times []float64
	var clock hostClock
	for rep := 0; rep < reps; rep++ {
		if w.live != nil {
			w.live.close()
			w.live = nil
			debug.FreeOSMemory()
		}
		clock.start()
		if err := w.setupOnce(rep); err != nil {
			return nil, err
		}
		_, norm := clock.mark()
		times = append(times, norm)
	}
	return times, nil
}

func (w *serveWorkload) setupOnce(rep int) error {
	// Every trace a request can name is generated now, so no timed request
	// pays for lazy generation. The first set-up fills the process-wide
	// trace cache the servers read; later ones repeat the work uncached.
	for _, p := range tgen.Presets() {
		for _, n := range []int{simInsns, sweepInsns} {
			p.Insns = n
			if rep == 0 {
				w.traceLen[traceKey(p.Name, n)] = simcache.GenerateTrace(p).Len()
			} else {
				tgen.Generate(p)
			}
		}
	}
	if w.gen == nil {
		w.gen = newKeyGen(w.seed, w.traceLen)
		if w.kind != serveCold {
			var err error
			if w.replay, err = w.gen.block(replayLen, false); err != nil {
				return err
			}
		}
	}
	storeDir := ""
	if w.kind != serveWarm {
		storeDir = filepath.Join(w.dir, fmt.Sprintf("store-%d", rep))
	}
	live, err := startServer(cacheEntries, storeDir)
	if err != nil {
		return err
	}
	if w.kind == serveCold {
		w.live = live
		return nil
	}
	// The fill pass. The first one records every sim result and sweep
	// stream; later ones, on fresh servers, must reproduce them.
	w.meter.setChecks(rep == 0, rep > 0)
	rep0, err := w.drive(live, w.replay, nil)
	if err != nil {
		live.close()
		return err
	}
	w.setupFailed += roundFailures(rep0) + w.meter.takeMismatches()
	if w.kind == serveWarm {
		w.live = live
		return nil
	}
	// serve-disk: close the filling server, flushing its store, and serve
	// the store from a fresh server with a tiny memory tier.
	live.close()
	w.live, err = startServer(diskCacheEntries, storeDir)
	return err
}

// drive runs one round closed-loop through load.Drive, which books every
// request to exactly one of ok, shed or error, checks repeated sweep
// streams and polls jobs to their terminal state.
func (w *serveWorkload) drive(live *liveServer, reqs []request, tr *tracer) (*load.Report, error) {
	sched := &load.Schedule{
		Spec: load.Spec{Mode: load.ModeNormal, Seed: w.seed},
		Reqs: make([]load.Request, len(reqs)),
	}
	for i, r := range reqs {
		sched.Reqs[i] = r.req
	}
	sp := tr.begin("round", "", 0)
	defer tr.end(sp)
	return load.Drive(context.Background(), sched, load.DriveOpts{
		BaseURL:    live.url,
		Loop:       load.LoopClosed,
		Conns:      conns,
		Client:     w.client,
		SkipScrape: true,
	})
}

// roundFailures counts a round's failed requests and broken invariants.
func roundFailures(r *load.Report) int {
	n := r.Shed + r.Errors + r.ShedMissingRetryAfter + r.Sweep.DigestMismatches +
		(r.Jobs.Submitted - r.Jobs.Done)
	if r.Requests != r.OK+r.Shed+r.Errors {
		n++
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: round of %d: ok %d shed %d errors %d (by status %v), sweep digest mismatches %d, jobs %+v\n",
			r.Requests, r.OK, r.Shed, r.Errors, r.ByStatus, r.Sweep.DigestMismatches, r.Jobs)
	}
	return n
}

// nextRound returns the next round's requests.
func (w *serveWorkload) nextRound() ([]request, error) {
	if w.kind != serveCold {
		return w.replay, nil
	}
	return w.gen.block(coldRound, true)
}

// counters are the /metrics counters the benchmark reads.
var counters = []string{
	"ovserve_sims_total",
	"ovserve_store_hits_total",
	"ovserve_store_misses_total",
	"ovserve_store_writes_total",
	"ovserve_checkpoints_saved_total",
	"ovserve_checkpoints_resumed_total",
	"ovserve_jobs_preempted_total",
}

// scrape reads the counters from /metrics.
func (w *serveWorkload) scrape(tr *tracer) (map[string]float64, error) {
	sp := tr.begin("GET /metrics", "", 0)
	defer tr.end(sp)
	resp, err := w.client.Get(w.live.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	want := map[string]bool{}
	for _, c := range counters {
		want[c] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// timed runs rounds until the phase's time is up. The host clock is marked
// around every round, and each round's latencies are scaled by the same
// factor as its wall time.
func (w *serveWorkload) timed(seconds float64, tr *tracer) (*phase, error) {
	ph := &phase{failed: w.setupFailed}
	w.setupFailed = 0
	w.meter.start(tr, w.kind != serveCold)
	before, err := w.scrape(nil)
	if err != nil {
		return nil, err
	}
	var mem0, mem1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&mem0)
	}
	var (
		makespans, lat []float64
		norm           float64 // normalised seconds of all rounds
		ops, resolved  int
		insns          int64
		clock          hostClock
	)
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		reqs, err := w.nextRound()
		if err != nil {
			return nil, err
		}
		clock.start()
		rep, err := w.drive(w.live, reqs, tr)
		if err != nil {
			return nil, err
		}
		wall, n := clock.mark()
		makespans = append(makespans, n)
		norm += n
		for _, ms := range w.meter.take() {
			lat = append(lat, ms*n/wall)
		}
		ph.attempted += rep.Requests
		ph.failed += roundFailures(rep)
		ops += rep.OK
		for _, r := range reqs {
			insns += r.insns
			resolved += r.sims
		}
		if tr != nil {
			if _, err := w.scrape(tr); err != nil {
				return nil, err
			}
		}
	}
	if tr != nil {
		runtime.ReadMemStats(&mem1)
	}
	after, err := w.scrape(nil)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	w.meter.stop()
	ph.failed += w.meter.takeMismatches()

	if len(lat) < minOps {
		fmt.Fprintf(os.Stderr, "perfbench: only %d timed requests, want at least %d\n", len(lat), minOps)
		ph.failed++
	}
	ph.e2e = map[string]float64{
		"makespan_s":       median(makespans),
		"throughput_ops":   float64(ops) / norm,
		"latency_p50_ms":   percentile(lat, 50),
		"latency_p99_ms":   percentile(lat, 99),
		"sim_minsns_per_s": float64(insns) / norm / 1e6,
	}
	sims := delta("ovserve_sims_total")
	hitRatio := 1 - sims/float64(resolved)
	switch {
	case w.kind == serveCold && hitRatio > hitRatioCeiling:
		fmt.Fprintf(os.Stderr, "perfbench: serve-cold result-cache hit ratio %.4f above the %.2f ceiling\n", hitRatio, hitRatioCeiling)
		ph.failed++
	case w.kind != serveCold && sims != 0:
		fmt.Fprintf(os.Stderr, "perfbench: replay caused %v simulations, want 0\n", sims)
		ph.failed++
	}
	if tr == nil {
		return ph, nil
	}

	httpLat := func(route string) []float64 { return tr.durations("POST "+route, "") }
	ph.layers = map[string]float64{
		"simcache.hit_ratio":           hitRatio,
		"simcache.sims":                sims,
		"store.hits":                   delta("ovserve_store_hits_total"),
		"store.misses":                 delta("ovserve_store_misses_total"),
		"store.writes":                 delta("ovserve_store_writes_total"),
		"server.sim.p50_ms":            percentile(httpLat("/v1/sim"), 50),
		"server.sim.p99_ms":            percentile(httpLat("/v1/sim"), 99),
		"server.sweep.p50_ms":          percentile(httpLat("/v1/sweep"), 50),
		"server.sweep.p99_ms":          percentile(httpLat("/v1/sweep"), 99),
		"server.metrics_scrape.p50_ms": percentile(tr.durations("GET /metrics", ""), 50),
		"server.bytes_per_req":         float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(ph.attempted),
	}
	// Only serve-cold sends jobs; the other workloads' traced runs take the
	// job layer's metrics from the serve probe (layers.go).
	if w.kind == serveCold {
		ph.layers["server.jobs_submit.p50_ms"] = percentile(httpLat("/v1/jobs"), 50)
		ph.layers["jobs.turnaround_p50_ms"] = median(w.meter.jobTurnaround())
		ph.layers["jobs.preempted"] = delta("ovserve_jobs_preempted_total")
		ph.layers["jobs.checkpoints_saved"] = delta("ovserve_checkpoints_saved_total")
		ph.layers["jobs.checkpoints_resumed"] = delta("ovserve_checkpoints_resumed_total")
	}
	p50, p99 := mixShares(tr)
	ph.layers["mix.p50_share"], ph.layers["mix.p99_share"] = p50.share, p99.share
	fmt.Fprintf(os.Stderr, "perfbench: op mix: p50 %.3f ms in %s (%.2f of its neighbours), p99 %.3f ms in %s (%.2f)\n",
		p50.value, p50.class, p50.share, p99.value, p99.class, p99.share)
	return ph, nil
}
