// Command perfbench is the repository's benchmark. It runs one named
// workload in its own process, checks the workload's outputs, and prints
// one JSON object as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-cold --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the object carries every end-to-end metric (host time,
// normalised as calib.go describes, and host memory, measured untraced). With --trace 1 the timed phase runs twice,
// untraced and then traced, each for half of --seconds; the object carries
// every per-layer metric, computed from the benchmark's own spans, and the
// traced-minus-untraced difference of each end-to-end metric. The spans are
// written to .bench_build/spans/. README.md explains the workloads and what
// each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"syscall"
)

// buildDir is the benchmark's scratch directory inside the checkout (also
// the build output directory of run.sh).
const buildDir = ".bench_build"

// A workload sets itself up several times and reports the median as
// setup_s: setupReps times when a set-up includes a fill pass of about a
// second, cheapSetupReps times when it takes tens of milliseconds.
const (
	setupReps      = 3
	cheapSetupReps = 7
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"makespan_s", "s"},
	{"throughput_ops", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"sim_minsns_per_s", "Minsn/s"},
	{"peak_rss_mb", "MB"},
}

// phaseMetrics are the end-to-end metrics a timed phase measures, so the
// ones whose tracing overhead a traced run reports.
var phaseMetrics = endToEnd[1:6]

// perLayer lists the metrics every traced run prints. Layer probes run in
// every traced run; the rest come from the workload itself, or from
// probeUnused where the workload does not use that layer (see README.md).
var perLayer = func() []metricDef {
	d := []metricDef{{"tgen.ns_per_insn", "ns"}}
	for _, m := range []string{"ooosim", "refsim"} {
		for _, p := range presetNames() {
			d = append(d, metricDef{m + "." + p + ".ns_per_insn", "ns"})
		}
		d = append(d, metricDef{m + ".bytes_per_run", "B"})
	}
	for _, c := range components {
		d = append(d, metricDef{c.name + ".ns_per_call", "ns"})
	}
	d = append(d, metricDef{"engine.fanout_efficiency", "ratio"})
	for _, e := range experimentNames() {
		d = append(d, metricDef{"experiments." + e + ".s", "s"})
	}
	d = append(d,
		metricDef{"simcache.hit_ratio", "ratio"},
		metricDef{"simcache.sims", "count"},
		metricDef{"store.load_us", "us"},
		metricDef{"store.save_us", "us"},
		metricDef{"store.hits", "count"},
		metricDef{"store.misses", "count"},
		metricDef{"store.writes", "count"},
		metricDef{"jobs.turnaround_p50_ms", "ms"},
		metricDef{"jobs.preempted", "count"},
		metricDef{"jobs.checkpoints_saved", "count"},
		metricDef{"jobs.checkpoints_resumed", "count"},
		metricDef{"server.sim.p50_ms", "ms"},
		metricDef{"server.sim.p99_ms", "ms"},
		metricDef{"server.sweep.p50_ms", "ms"},
		metricDef{"server.sweep.p99_ms", "ms"},
		metricDef{"server.jobs_submit.p50_ms", "ms"},
		metricDef{"server.metrics_scrape.p50_ms", "ms"},
		metricDef{"server.bytes_per_req", "B"},
		metricDef{"mix.p50_share", "ratio"},
		metricDef{"mix.p99_share", "ratio"},
	)
	for _, m := range phaseMetrics {
		d = append(d, metricDef{"overhead." + m.name, m.unit})
	}
	return d
}()

// phase is what one timed phase of a workload measured.
type phase struct {
	// e2e holds the phase's values of phaseMetrics, in normalised time
	// (calib.go).
	e2e map[string]float64
	// attempted and failed count operations and failed output checks.
	attempted, failed int
	// layers holds the workload's own per-layer metrics (traced phase). A
	// workload leaves out the metrics of layers it does not use; the probes
	// in layers.go measure those instead.
	layers map[string]float64
}

// workload is one benchmark workload. setup prepares it several times and
// returns each set-up's normalised time in seconds; timed runs operations for the
// given number of seconds, recording spans into tr when it is non-nil.
type workload interface {
	setup() ([]float64, error)
	timed(seconds float64, tr *tracer) (*phase, error)
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed int64, dir string) workload{
	"paper-suite": newPaperSuite,
	"serve-cold":  func(seed int64, dir string) workload { return newServe(serveCold, seed, dir) },
	"serve-warm":  func(seed int64, dir string) workload { return newServe(serveWarm, seed, dir) },
	"serve-disk":  func(seed int64, dir string) workload { return newServe(serveDisk, seed, dir) },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-suite, serve-cold, serve-warm or serve-disk")
	seed := flag.Int64("seed", 1, "workload seed: the serve workloads build their request schedules from it")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	newWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper-suite | serve-cold | serve-warm | serve-disk), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	res, err := measure(*name, newWorkload, *seed, float64(*seconds), *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure sets the workload up, runs its timed phase (twice when traced)
// and assembles the result.
func measure(name string, newWorkload func(int64, string) workload, seed int64, seconds float64, traced bool) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w := newWorkload(seed, dir)
	defer w.close()
	setups, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// Return the discarded set-ups' memory, so peak_rss_mb does not depend
	// on when the collector happened to run during set-up.
	debug.FreeOSMemory()
	res := &result{Metrics: map[string]metric{}}
	if !traced {
		ph, err := w.timed(seconds, nil)
		if err != nil {
			return nil, err
		}
		vals := ph.e2e
		vals["setup_s"] = median(setups)
		vals["peak_rss_mb"] = peakRSSMB()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		res.Attempted, res.Failed = ph.attempted, ph.failed
		res.Correct = ph.failed == 0
		return res, nil
	}

	base, err := w.timed(seconds/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ph, err := w.timed(seconds/2, tr)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	for k, v := range ph.layers {
		vals[k] = v
	}
	if err := probeLayers(tr, dir, vals); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	res.Attempted = base.attempted + ph.attempted
	res.Failed = base.failed + ph.failed
	probe, err := probeUnused(tr, seed, dir, vals)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if probe != nil {
		res.Attempted += probe.attempted
		res.Failed += probe.failed
	}
	for _, m := range phaseMetrics {
		vals["overhead."+m.name] = ph.e2e[m.name] - base.e2e[m.name]
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	res.Correct = res.Failed == 0
	spanDir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", name, seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// peakRSSMB is the process's maximum resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
