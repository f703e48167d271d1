// Command ovsim runs one benchmark on one machine configuration and prints
// the measurements.
//
// Usage:
//
//	ovsim -bench swm256 -machine ooo -vregs 16 -latency 50
//	ovsim -bench trfd -machine ooo -commit late -elim sle+vle
//	ovsim -bench hydro2d -machine ref -latency 100
//	ovsim -trace kernel.ovtr -machine ooo
//	ovsim -bench swm256 -stalls               # stall-cause attribution
//	ovsim -bench swm256 -pipetrace out.kanata # Kanata/Konata pipeline trace
package main

import (
	"flag"
	"fmt"
	"os"

	"oovec"
	"oovec/internal/cli"
	"oovec/internal/engine"
	"oovec/internal/probe"
	"oovec/internal/viz"
)

func main() {
	var (
		bench   = flag.String("bench", "swm256", "benchmark name (see ovtrace -list)")
		traceF  = flag.String("trace", "", "run a serialised trace file instead of a benchmark")
		machine = flag.String("machine", "ooo", "machine: ref | ooo")
		vregs   = flag.Int("vregs", 0, "physical vector registers (OOOVA; 0 = 16)")
		queues  = flag.Int("queues", 0, "instruction queue slots (OOOVA; 0 = 16)")
		latency = flag.Int64("latency", 50, "main-memory latency in cycles")
		commit  = flag.String("commit", "", "commit policy: early | late (OOOVA; empty = early)")
		elim    = flag.String("elim", "", "load elimination: none | sle | sle+vle (OOOVA; empty = none)")
		insns   = flag.Int("insns", 0, "override benchmark instruction budget")
		stalls  = flag.Bool("stalls", false, "print stall-cause attribution and occupancy histograms")
		ptrace  = flag.String("pipetrace", "", "write a Kanata/Konata pipeline trace of the run to this file")
	)
	common := cli.RegisterCommon(flag.CommandLine)
	flag.Parse()
	common.Announce("ovsim")

	tr, err := loadTrace(*bench, *traceF, *insns)
	if err != nil {
		fatal(err)
	}

	// The pipeline trace sink observes the run without changing its
	// measurements; the Kanata file is flushed after the run completes.
	var kan *probe.Kanata
	var kanFile *os.File
	if *ptrace != "" {
		kanFile, err = os.Create(*ptrace)
		if err != nil {
			fatal(err)
		}
		kan = probe.NewKanata(kanFile)
	}

	// The flags fill the same config surface as the /v1/sim "config"
	// object and resolve through the same bounds and messages.
	sc := cli.SimConfig{VRegs: *vregs, Queues: *queues, Latency: *latency, Commit: *commit, Elim: *elim}
	switch *machine {
	case "ref":
		cfg, err := sc.RefConfig()
		if err != nil {
			fatal(err)
		}
		if kan != nil {
			cfg.Sink = kan
		}
		st := oovec.RunReference(tr, cfg)
		printStats(st)
		if *stalls {
			printStalls(st)
		}
	case "ooo":
		cfg, err := sc.OOOConfig()
		if err != nil {
			fatal(err)
		}
		if kan != nil {
			cfg.Sink = kan
		}
		// The OOOVA run and the reference comparison run are independent;
		// fan them across the worker pool.
		var res *oovec.OOOVAResult
		var ref *oovec.RunStats
		engine.Map(common.Jobs, 2, func(i int) {
			if i == 0 {
				res = oovec.RunOOOVA(tr, cfg)
			} else {
				refCfg := oovec.DefaultReferenceConfig()
				refCfg.MemLatency = *latency
				ref = oovec.RunReference(tr, refCfg)
			}
		})
		printStats(res.Stats)
		fmt.Printf("%-28s %.3f\n", "speedup over REF:", oovec.Speedup(ref, res.Stats))
		fmt.Printf("%-28s %.3f\n", "IDEAL speedup bound:", oovec.IdealSpeedup(ref.Cycles, tr))
		if *stalls {
			printStalls(res.Stats)
		}
	default:
		fatal(fmt.Errorf("unknown machine %q (ref | ooo)", *machine))
	}

	if kan != nil {
		if err := kan.Flush(); err == nil {
			err = kanFile.Close()
		}
		if err != nil {
			fatal(fmt.Errorf("pipetrace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "ovsim: pipeline trace written to %s\n", *ptrace)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ovsim:", err)
	os.Exit(1)
}

func loadTrace(bench, traceFile string, insns int) (*oovec.Trace, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return oovec.ReadTrace(f)
	}
	if insns > 0 {
		p, ok := oovec.BenchmarkPresetByName(bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", bench)
		}
		p.Insns = insns
		return oovec.GeneratePreset(p), nil
	}
	return oovec.GenerateBenchmark(bench)
}

func printStats(st *oovec.RunStats) {
	fmt.Printf("%-28s %s\n", "machine:", st.Machine)
	fmt.Printf("%-28s %s\n", "program:", st.Program)
	fmt.Printf("%-28s %d\n", "instructions:", st.Instructions)
	fmt.Printf("%-28s %d\n", "cycles:", st.Cycles)
	fmt.Printf("%-28s %d\n", "memory requests:", st.MemRequests)
	fmt.Printf("%-28s %.1f%%\n", "memory port idle:", st.MemPortIdlePct())
	fmt.Printf("%-28s %d\n", "port conflict cycles:", st.VRegPortConflictCycles)
	if st.Mispredicts > 0 {
		fmt.Printf("%-28s %d\n", "mispredictions:", st.Mispredicts)
	}
	if st.EliminatedLoads > 0 {
		fmt.Printf("%-28s %d (%d requests)\n", "eliminated loads:",
			st.EliminatedLoads, st.EliminatedRequests)
	}
	fmt.Println("state breakdown:")
	for s := 0; s < len(st.States); s++ {
		if st.States[s] == 0 {
			continue
		}
		pct := 100 * float64(st.States[s]) / float64(st.Cycles)
		fmt.Printf("  %-16s %10d  (%.1f%%)\n", stateName(s), st.States[s], pct)
	}
}

func stateName(s int) string {
	return oovec.StateBreakdownName(s)
}

// printStalls renders the decode-stall attribution and the structure
// occupancy histograms (-stalls). The REF machine models no decode window,
// so for it only the memory-bus row is ever non-zero and the occupancy
// histograms are empty (skipped).
func printStalls(st *oovec.RunStats) {
	fmt.Print(viz.HBar("stall cycles by cause:", []viz.BarRow{
		{Label: "rob-full", Value: float64(st.Stalls.ROBFull)},
		{Label: "iq-full", Value: float64(st.Stalls.IQFull())},
		{Label: "no-phys-reg", Value: float64(st.Stalls.NoPhysReg())},
		{Label: "port-conflict", Value: float64(st.Stalls.PortConflict)},
		{Label: "mem-bus-busy", Value: float64(st.Stalls.MemBusBusy)},
	}, 40))
	for _, h := range []struct {
		name string
		hist *oovec.OccupancyHist
	}{
		{"ROB", &st.Occupancy.ROB},
		{"IQ (address)", &st.Occupancy.IQA},
		{"IQ (scalar)", &st.Occupancy.IQS},
		{"IQ (vector)", &st.Occupancy.IQV},
		{"IQ (memory)", &st.Occupancy.IQM},
	} {
		if h.hist.Samples() == 0 {
			continue
		}
		counts := make([]int64, len(h.hist.Counts))
		copy(counts, h.hist.Counts[:])
		fmt.Print(viz.Occupancy(
			fmt.Sprintf("%s occupancy (fraction of %d):", h.name, h.hist.Cap), counts, 40))
	}
}
