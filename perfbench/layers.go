package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"

	"oovec/internal/engine"
	"oovec/internal/experiments"
	"oovec/internal/iq"
	"oovec/internal/isa"
	"oovec/internal/metrics"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/rename"
	"oovec/internal/rob"
	"oovec/internal/sched"
	"oovec/internal/simcache"
	"oovec/internal/store"
	"oovec/internal/tgen"
	"oovec/internal/trace"
	"oovec/internal/vregfile"
)

// The layer probes time each layer's public functions directly, outside
// any workload. Every traced run reports them, so a change to one layer can
// be attributed on whichever workload's traced run shows it.

const (
	// probeReps is how many times each probe repeats; it reports the median.
	probeReps = 3
	// componentCalls is the length of each component's synthetic sequence.
	componentCalls = 1 << 20
	// fanoutInsns is the trace budget of the engine fan-out probe: Figure 5
	// twice at the default budget would cost most of a traced run.
	fanoutInsns = 10000
	// storeProbeKeys is how many entries the store probe saves and loads.
	storeProbeKeys = 256
	// probeInsns is the trace budget of the experiments probe. The serve
	// workloads, the only ones that run it, generate these traces in set-up.
	probeInsns = simInsns
	// serveProbeSeconds is the length of the serve probe's timed phase:
	// long enough for minOps requests on a slowed-down host.
	serveProbeSeconds = 5
)

// sink keeps the component sequences' results live.
var sink int64

// component is one simulator component's synthetic call sequence over its
// //ovlint:hotpath methods; run makes n calls in total.
type component struct {
	name string
	run  func(n int) int64
}

var components = []component{
	{"rename", func(n int) int64 {
		// Allocate renames a register, Release frees the mapping it
		// displaced; every eighth rename is a load-elimination AliasTo.
		t := rename.MustNewTable(isa.RegV, 64)
		var acc int64
		for i := 0; i < n; i += 2 {
			l := i % isa.NumLogicalV
			var old int
			if i%16 == 0 {
				old = t.AliasTo(l, t.Lookup((l+1)%isa.NumLogicalV))
			} else {
				newP, o, ready, ok := t.Allocate(l)
				if !ok {
					continue
				}
				old = o
				acc += int64(newP) + ready
			}
			t.Release(old, int64(i))
		}
		return acc
	}},
	{"iq", func(n int) int64 {
		// An A/S/V queue issue, then one memory instruction through the
		// M queue: Advance, ConflictConstraint, Record.
		q, mq := iq.NewQueue(iq.DefaultSlots), iq.NewMemQueue(iq.DefaultSlots)
		q.Reserve(n / 4)
		mq.Reserve(n / 4)
		var acc int64
		for i := 0; i < n; i += 4 {
			at := int64(i)
			acc += q.Issue(at, at+int64(i%7))
			ready := mq.Advance(at)
			addr := uint64(i%4096) * 8
			store := i%12 == 0
			acc += mq.ConflictConstraint(addr, addr+1023, store)
			mq.Record(addr, addr+1023, store, ready, ready+16)
		}
		return acc
	}},
	{"rob", func(n int) int64 {
		r := rob.New(rob.DefaultSize, rob.DefaultWidth)
		var acc int64
		for i := 0; i < n; i++ {
			acc += r.Commit(int64(i/3 + i%5))
		}
		return acc
	}},
	{"sched", func(n int) int64 {
		// In-order and out-of-order bookings plus a Peek probe, reset
		// every 4096 calls so the interval lists stay a fixed size.
		m, g := sched.NewMonotonic(), sched.NewGap()
		m.Reserve(4096)
		g.Reserve(4096)
		var acc int64
		for i := 0; i < n; i += 3 {
			if i%4096 < 3 {
				m.Reset()
				g.Reset()
			}
			at := int64(i%4096) + 16
			acc += m.Allocate(at, int64(1+i%4))
			acc += g.Peek(at-int64(i%9), 2)
			acc += g.Allocate(at-int64(i%9), int64(1+i%3))
		}
		return acc
	}},
	{"vregfile", func(n int) int64 {
		// The OOOVA's flat file and the reference machine's banked file,
		// each probed with Peek and booked with Acquire.
		flat, banked := vregfile.NewFlatFile(64), vregfile.NewBankedFile(isa.NumLogicalV)
		var reads [2]int
		var acc int64
		for i := 0; i < n; i += 4 {
			at := int64(i)
			reads[0], reads[1] = i%64, (i+17)%64
			acc += flat.Peek(reads[:], (i+31)%64, at)
			acc += flat.Acquire(reads[:], (i+31)%64, at, int64(i%128))
			reads[0], reads[1] = i%8, (i+3)%8
			acc += banked.Peek(reads[:], (i+5)%8, at)
			acc += banked.Acquire(reads[:], (i+5)%8, at, int64(i%128))
		}
		return acc
	}},
}

// probeLayers runs every layer probe, recording spans into tr, and stores
// the per-layer metrics into out.
func probeLayers(tr *tracer, dir string, out map[string]float64) error {
	// tgen: uncached generation of the ten default-budget traces.
	var genNs, genInsns int64
	traces := make([]*trace.Trace, 0, len(tgen.Presets()))
	for _, p := range tgen.Presets() {
		p.Insns = tgen.DefaultInsns
		sp := tr.begin("tgen.Generate", p.Name, 0)
		t := tgen.Generate(p)
		genNs += tr.end(sp).Nanoseconds()
		genInsns += int64(t.Len())
		traces = append(traces, t)
	}
	out["tgen.ns_per_insn"] = float64(genNs) / float64(genInsns)

	// One simulator step: a pooled machine per simulator, warmed once per
	// trace, then timed probeReps times per preset.
	oooM := ooosim.NewMachine(ooosim.DefaultConfig())
	refM := refsim.NewMachine(refsim.DefaultConfig())
	var last *metrics.RunStats
	for _, sim := range []struct {
		name string
		run  func(*trace.Trace) *metrics.RunStats
	}{
		{"ooosim", func(t *trace.Trace) *metrics.RunStats { return oooM.Run(t).Stats }},
		{"refsim", refM.Run},
	} {
		var before, after runtime.MemStats
		runs := 0
		for _, t := range traces {
			sim.run(t)
			runtime.ReadMemStats(&before)
			var ns []float64
			for rep := 0; rep < probeReps; rep++ {
				sp := tr.begin("Machine.Run", sim.name+"/"+t.Name, 0)
				last = sim.run(t)
				ns = append(ns, float64(tr.end(sp).Nanoseconds())/float64(t.Len()))
			}
			runtime.ReadMemStats(&after)
			out[sim.name+"."+t.Name+".ns_per_insn"] = median(ns)
			out[sim.name+".bytes_per_run"] += float64(after.TotalAlloc - before.TotalAlloc)
			runs += probeReps
		}
		out[sim.name+".bytes_per_run"] /= float64(runs)
	}

	for _, c := range components {
		var ns []float64
		for rep := 0; rep < probeReps; rep++ {
			sp := tr.begin("component", c.name, 0)
			sink += c.run(componentCalls)
			ns = append(ns, float64(tr.end(sp).Nanoseconds())/componentCalls)
		}
		out[c.name+".ns_per_call"] = median(ns)
	}

	// Engine fan-out: Figure 5 on a fresh serial suite and on one with a
	// worker per core, over pre-generated traces, alternating probeReps
	// times.
	for _, p := range tgen.Presets() {
		p.Insns = fanoutInsns
		simcache.GenerateTrace(p)
	}
	fig5 := func(workers int) float64 {
		sp := tr.begin("engine.Fig5", fmt.Sprintf("workers=%d", workers), 0)
		experiments.Fig5(experiments.NewSuite(experiments.Opts{Insns: fanoutInsns, Parallelism: workers}))
		return tr.end(sp).Seconds()
	}
	workers := engine.Workers(0)
	var serial, parallel []float64
	for rep := 0; rep < probeReps; rep++ {
		serial = append(serial, fig5(1))
		parallel = append(parallel, fig5(workers))
	}
	out["engine.fanout_efficiency"] = median(serial) / (float64(workers) * median(parallel))

	// Store I/O on a fresh directory: Save of every key plus the Flush that
	// makes them durable, then a Load of each.
	st, err := store.Open(filepath.Join(dir, "probe-store"), 0)
	if err != nil {
		return err
	}
	defer st.Close()
	ctx := context.Background()
	keys := make([]string, storeProbeKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%032x", i+1)
	}
	sp := tr.begin("store.Save+Flush", "", 0)
	for _, k := range keys {
		st.Save(ctx, k, last)
	}
	st.Flush()
	out["store.save_us"] = float64(tr.end(sp).Nanoseconds()) / 1e3 / storeProbeKeys
	sp = tr.begin("store.Load", "", 0)
	for _, k := range keys {
		if _, ok := st.Load(ctx, k); !ok {
			return fmt.Errorf("store probe: key %s did not load back", k)
		}
	}
	out["store.load_us"] = float64(tr.end(sp).Nanoseconds()) / 1e3 / storeProbeKeys
	return nil
}

// probeUnused measures the per-layer metrics of the layers a workload does
// not use, so that every traced run reports every metric as measured: the
// experiments on a fresh serial suite at probeInsns-instruction traces
// (serve workloads), and the server, result cache, store and job layers on
// a short serve-cold phase against a server of its own (paper-suite; the
// job layer on serve-warm and serve-disk). It returns the serve probe's
// phase, whose operations and failures count in the run's, or nil.
func probeUnused(tr *tracer, seed int64, dir string, out map[string]float64) (*phase, error) {
	missing := func(layer string) bool {
		for _, m := range perLayer {
			if _, ok := out[m.name]; !ok && strings.HasPrefix(m.name, layer+".") {
				return true
			}
		}
		return false
	}
	if missing("experiments") {
		s := experiments.NewSuite(experiments.Opts{Insns: probeInsns, Parallelism: 1})
		for _, name := range experiments.AllExperiments {
			sp := tr.begin("experiments.Run", name, 0)
			_, err := experiments.Run(s, name)
			out["experiments."+name+".s"] = tr.end(sp).Seconds()
			if err != nil {
				return nil, err
			}
		}
	}
	if !missing("server") && !missing("jobs") {
		return nil, nil
	}
	w := newServe(serveCold, seed, filepath.Join(dir, "serve-probe"))
	defer w.close()
	if _, err := w.setup(); err != nil {
		return nil, fmt.Errorf("serve probe set-up: %w", err)
	}
	// The probe's spans must not mix with the workload's in the probe's
	// own span statistics, so it records into a tracer of its own.
	ptr := newTracer()
	ph, err := w.timed(serveProbeSeconds, ptr)
	tr.adopt(ptr)
	if err != nil {
		return nil, fmt.Errorf("serve probe: %w", err)
	}
	for k, v := range ph.layers {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return ph, nil
}
