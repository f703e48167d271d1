// Command ovsweep runs parameter grids over the simulators and writes the
// raw measurements as CSV for downstream plotting.
//
// Grid points run through the same content-addressed result cache as the
// ovserve daemon (internal/simcache), so duplicate points — overlapping
// grids, repeated benchmarks, machine "both" sharing a REF latitude — are
// simulated once per process. With -cache-dir the cache gains a durable
// disk tier (internal/store): repeated sweeps across process invocations
// simulate only their delta, and the directory is shared with ovbench and
// ovserve. SIGINT/SIGTERM cancel the grid between simulations and exit
// non-zero without writing a truncated CSV — but completed points are
// flushed to the store first, so an interrupted sweep still warms the
// next run.
//
// Usage:
//
//	ovsweep -bench swm256,trfd -regs 9,16,32,64 -lats 1,50,100 -o sweep.csv
//	ovsweep -bench bdna -machine ref -lats 1,20,70,100
//	ovsweep -bench swm256 -cache-dir ~/.cache/oovec   # warm across runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"oovec/internal/cli"
	"oovec/internal/simcache"
	"oovec/internal/sweep"
)

func main() {
	var (
		bench   = flag.String("bench", "swm256", "comma-separated benchmark names")
		machine = flag.String("machine", "ooo", "machine: ref | ooo | both")
		regsF   = flag.String("regs", "", "comma-separated physical vector register counts (OOOVA; empty = the default grid)")
		latsF   = flag.String("lats", "", "comma-separated memory latencies (empty = the default grid)")
		commit  = flag.String("commit", "early", "commit policy: early | late (OOOVA)")
		elim    = flag.String("elim", "none", "load elimination: none | sle | sle+vle (OOOVA)")
		insns   = flag.Int("insns", 0, "instruction budget override")
		out     = flag.String("o", "", "output CSV path (default stdout)")
	)
	common := cli.RegisterCommon(flag.CommandLine)
	cacheF := cli.RegisterCache(flag.CommandLine)
	flag.Parse()
	common.Announce("ovsweep")

	spec := sweep.Spec{Machine: *machine, Commit: *commit, Elim: *elim, Insns: *insns}
	for _, name := range strings.Split(*bench, ",") {
		spec.Bench = append(spec.Bench, strings.TrimSpace(name))
	}
	regs, err := parseInts(*regsF)
	if err != nil {
		fatal(err)
	}
	spec.Regs = regs
	lats, err := parseInts(*latsF)
	if err != nil {
		fatal(err)
	}
	for _, l := range lats {
		spec.Lats = append(spec.Lats, int64(l))
	}
	if err := spec.Resolve(); err != nil {
		fatal(err)
	}

	// Grid points go through the same content-addressed result cache the
	// ovserve daemon uses (keyed by resolved config + trace content), so
	// overlapping grids in one invocation only simulate distinct points —
	// and with -cache-dir, across invocations too: the in-memory tier
	// fronts the durable store, and a repeated sweep in a fresh process
	// runs only its delta. The signal context stops the grid between
	// points on Ctrl-C.
	ctx, stop := cli.SignalContext()
	defer stop()
	st, err := cacheF.Open()
	if err != nil {
		fatal(err)
	}
	var disk simcache.ResultStore
	if st != nil {
		disk = st
	}
	var sims atomic.Int64
	opts := sweep.Opts{
		Workers: common.Jobs,
		Cache:   simcache.NewResults(4096, disk),
		Ctx:     ctx,
		OnSim:   func() { sims.Add(1) },
	}
	var pts []sweep.Point
	err = sweep.Run(spec, opts, func(grid []sweep.Point) error {
		pts = append(pts, grid...)
		return nil
	})
	// Completed rows become durable before any exit — including the SIGINT
	// path, so an interrupted sweep still warms the next run.
	if st != nil {
		st.Close()
	}
	if err != nil {
		fatal(fmt.Errorf("sweep interrupted: %w", err))
	}
	if common.Verbose {
		fmt.Fprintf(os.Stderr, "ovsweep: %d grid points, %d simulations run (%d served from cache)\n",
			len(pts), sims.Load(), int64(len(pts))-sims.Load())
	}

	if *out == "" {
		if err := sweep.WriteCSV(os.Stdout, pts); err != nil {
			fatal(err)
		}
		return
	}
	// cli.WriteFile reports Sync/Close errors: a full disk must not leave
	// a silently truncated CSV behind an exit 0.
	err = cli.WriteFile(*out, func(w io.Writer) error {
		return sweep.WriteCSV(w, pts)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d points to %s\n", len(pts), *out)
}

// parseInts parses a comma-separated integer list; the empty string is the
// empty list, which the grid fills with its defaults.
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ovsweep:", err)
	os.Exit(1)
}
