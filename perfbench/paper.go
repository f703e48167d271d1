package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"oovec/internal/experiments"
	"oovec/internal/metrics"
	"oovec/internal/simcache"
	"oovec/internal/tgen"
)

// paperDigest is the SHA-256 of one full pass's rendered output: all 13
// experiments, in experiments.AllExperiments order, at the default
// 40,000-instruction traces. The simulators are deterministic, so a change
// that only makes them faster leaves it unchanged; a change that alters
// simulated results on purpose must update it.
const paperDigest = "d9e323dea9cda294b61305f72716a2d3b4d0c6d02693bd4050a90a62d09c136e"

// paperSuite regenerates every table and figure of the paper on a fresh
// serial experiments.Suite per pass: what an ovbench user waits for, and
// almost all of it simulation. Its inputs are the paper's ten fixed
// programs, so the seed does not change them.
type paperSuite struct{}

func newPaperSuite(int64, string) workload { return &paperSuite{} }

func (w *paperSuite) close() {}

// setup generates the ten traces at the default budget. The first set-up
// fills the process-wide trace cache that every pass reads; the others
// repeat the same generation without the cache.
func (w *paperSuite) setup() ([]float64, error) {
	var times []float64
	clock := hostClock{serial: true}
	for rep := 0; rep < cheapSetupReps; rep++ {
		runtime.GC() // see pass
		clock.start()
		for _, p := range tgen.Presets() {
			p.Insns = tgen.DefaultInsns
			if rep == 0 {
				simcache.GenerateTrace(p)
			} else {
				tgen.Generate(p)
			}
		}
		_, norm := clock.mark()
		times = append(times, norm)
	}
	return times, nil
}

// timed runs whole passes until the next one would end more than half a
// pass past the deadline; makespan_s is the median pass. The host clock is
// marked before and after every simulation, so the latencies are the
// simulations' normalised times.
func (w *paperSuite) timed(seconds float64, tr *tracer) (*phase, error) {
	ph := &phase{}
	obs := &simObserver{tr: tr, clock: hostClock{serial: true}}
	var makespans []float64
	var insns int64
	start := time.Now()
	for last := 0.0; ph.attempted == 0 || time.Since(start).Seconds()+last <= seconds+last/2; {
		passStart := time.Now()
		makespan, ok, err := w.pass(obs, tr)
		if err != nil {
			return nil, err
		}
		last = time.Since(passStart).Seconds()
		makespans = append(makespans, makespan)
		ph.attempted++
		if !ok {
			ph.failed++
		}
		insns = obs.insns
	}
	mid := median(makespans)
	ph.e2e = map[string]float64{
		"makespan_s":       mid,
		"throughput_ops":   float64(len(obs.lat)) / float64(ph.attempted) / mid,
		"latency_p50_ms":   percentile(obs.lat, 50),
		"latency_p99_ms":   percentile(obs.lat, 99),
		"sim_minsns_per_s": float64(insns) / mid / 1e6,
	}
	if tr != nil {
		ph.layers = map[string]float64{}
		for _, name := range experiments.AllExperiments {
			ph.layers["experiments."+name+".s"] = median(tr.durations("experiments.Run", name)) / 1e3
		}
	}
	return ph, nil
}

// pass regenerates all 13 experiments once and checks the output: the
// rendered bytes must match paperDigest, and the OOOVA must beat REF at 16
// physical registers on all ten programs (Figure 5). It returns the pass's
// normalised time in seconds.
func (w *paperSuite) pass(obs *simObserver, tr *tracer) (float64, bool, error) {
	// Every pass starts from a collected heap, outside the timed intervals,
	// so the collections inside it, and the peak RSS between them, fall at
	// the same points of the same work in every run: without this, the
	// peak of a run moved between 154 and 185 MB.
	runtime.GC()
	s := experiments.NewSuite(experiments.Opts{Parallelism: 1, Store: obs})
	h := sha256.New()
	obs.insns, obs.norm = 0, 0
	obs.clock.start()
	for _, name := range experiments.AllExperiments {
		sp := tr.begin("experiments.Run", name, 0)
		obs.parent = sp.id
		out, err := experiments.Run(s, name)
		tr.end(sp)
		if err != nil {
			return 0, false, err
		}
		io.WriteString(h, out)
	}
	_, norm := obs.clock.mark()
	obs.norm += norm

	ok := true
	if digest := hex.EncodeToString(h.Sum(nil)); digest != paperDigest {
		fmt.Fprintf(os.Stderr, "paper-suite: output digest %s, want %s\n", digest, paperDigest)
		ok = false
	}
	// Every Figure 5 run is in the suite's run cache now: no simulation.
	f5 := experiments.Fig5(s)
	for _, name := range f5.Names {
		if sp := f5.Speedup16[name][16]; !(sp > 1) {
			fmt.Fprintf(os.Stderr, "paper-suite: %s OOOVA speedup over REF at 16 registers is %.3f, want > 1\n", name, sp)
			ok = false
		}
	}
	return obs.norm, ok, nil
}

// simObserver is the suite's result store, used only to see simulations:
// on a run-cache miss the suite calls Load, simulates, then calls Save, so
// the interval from Load to Save is one simulation. Load always misses, so
// every miss simulates exactly as it would without a store. The suite runs
// serially (Parallelism 1), so Load/Save pairs never interleave. Each call
// marks the pass's host clock, which adds the interval it ends to norm.
type simObserver struct {
	tr     *tracer
	parent int // the experiments.Run span the simulations belong to
	clock  hostClock
	start  time.Time
	norm   float64   // normalised seconds of the pass so far
	lat    []float64 // normalised ms per simulation, over all passes
	insns  int64     // instructions simulated in the pass
}

func (o *simObserver) Load(context.Context, string) (*metrics.RunStats, bool) {
	_, norm := o.clock.mark()
	o.norm += norm
	o.start = time.Now()
	return nil, false
}

func (o *simObserver) Save(_ context.Context, _ string, st *metrics.RunStats) {
	end := time.Now()
	_, norm := o.clock.mark()
	o.norm += norm
	o.lat = append(o.lat, norm*1e3)
	o.insns += st.Instructions
	o.tr.record("simulate", st.Machine+"/"+st.Program, o.parent, o.start, end)
}

func experimentNames() []string { return experiments.AllExperiments }

func presetNames() []string { return tgen.Names() }
