// Package cli shares small helpers between the oovec commands.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"oovec/internal/engine"
	"oovec/internal/isa"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/rob"
	"oovec/internal/store"
)

// SignalContext returns a context cancelled on SIGINT or SIGTERM, for
// commands that want Ctrl-C to stop a long grid between simulations
// instead of killing the process mid-write. The signal handler unregisters
// itself as soon as the context fires, so a second signal gets the default
// behaviour (immediate exit) — an impatient second Ctrl-C is never
// swallowed while a long simulation point drains.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// ParseCommit maps the user-facing commit-policy vocabulary onto
// rob.Policy. Every surface accepting a commit policy — ovsim, ovsweep,
// the ovserve API — parses through here, so the accepted words and the
// error message cannot drift between them. The empty string selects the
// paper's default (early).
func ParseCommit(s string) (rob.Policy, error) {
	switch s {
	case "", "early":
		return rob.PolicyEarly, nil
	case "late":
		return rob.PolicyLate, nil
	}
	return rob.PolicyEarly, fmt.Errorf("unknown commit policy %q (early | late)", s)
}

// ParseElim maps the user-facing load-elimination vocabulary onto
// ooosim.ElimMode ("slevle" is accepted as a shell-friendly alias for
// "sle+vle"). The empty string selects none.
func ParseElim(s string) (ooosim.ElimMode, error) {
	switch s {
	case "", "none":
		return ooosim.ElimNone, nil
	case "sle":
		return ooosim.ElimSLE, nil
	case "sle+vle", "slevle":
		return ooosim.ElimSLEVLE, nil
	}
	return ooosim.ElimNone, fmt.Errorf("unknown elimination mode %q (none | sle | sle+vle)", s)
}

// SimConfig is the machine configuration surface of a single run — the
// ooosim.Config / refsim.Config fields a user may override — shared by the
// ovsim flags and the ovserve /v1/sim "config" object. Zero fields keep the
// paper's defaults. OOOConfig and RefConfig are the one resolver both
// surfaces run it through, so the bounds and the error messages cannot
// drift between them.
type SimConfig struct {
	// VRegs is the physical vector register count (OOOVA; default 16).
	VRegs int `json:"vregs,omitempty"`
	// Queues is the instruction queue depth (OOOVA; default 16).
	Queues int `json:"queues,omitempty"`
	// ROB is the reorder buffer capacity (OOOVA; default 64).
	ROB int `json:"rob,omitempty"`
	// CommitWidth is the maximum commits per cycle (OOOVA; default 4).
	CommitWidth int `json:"commit_width,omitempty"`
	// Latency is the main-memory latency in cycles (default 50).
	Latency int64 `json:"latency,omitempty"`
	// ScalarLatency is the scalar-reference latency (default 6).
	ScalarLatency int64 `json:"scalar_latency,omitempty"`
	// Commit is the commit policy: "early" (default) or "late" (OOOVA).
	Commit string `json:"commit,omitempty"`
	// Elim is the load-elimination mode: "none" (default), "sle" or
	// "sle+vle" (OOOVA).
	Elim string `json:"elim,omitempty"`
}

// MaxStructure bounds every structural size a request may set: physical
// vector registers (a run's vregs, a sweep's regs), queue slots, reorder
// buffer entries and commit width. A machine allocates state in proportion
// to these sizes when it is built, so an unbounded value would let one
// request exhaust the process's memory. 1024 is eight times the largest
// size the paper evaluates (128-slot queues).
const MaxStructure = 1024

// OOOConfig resolves the surface onto an ooosim.Config: no negative field,
// no structural size above MaxStructure, and more physical vector registers
// than architectural ones, since renaming needs at least one spare (the
// simulator panics without it). Zero fields stay zero, which the simulator
// runs as the paper's defaults.
func (c SimConfig) OOOConfig() (ooosim.Config, error) {
	cfg := ooosim.Config{
		PhysVRegs:        c.VRegs,
		QueueSlots:       c.Queues,
		ROBSize:          c.ROB,
		CommitWidth:      c.CommitWidth,
		MemLatency:       c.Latency,
		ScalarMemLatency: c.ScalarLatency,
	}
	if cfg.PhysVRegs < 0 || cfg.QueueSlots < 0 || cfg.ROBSize < 0 || cfg.CommitWidth < 0 ||
		cfg.MemLatency < 0 || cfg.ScalarMemLatency < 0 {
		return ooosim.Config{}, errors.New("config values must be non-negative")
	}
	if max(cfg.PhysVRegs, cfg.QueueSlots, cfg.ROBSize, cfg.CommitWidth) > MaxStructure {
		return ooosim.Config{}, fmt.Errorf("vregs, queues, rob and commit_width must be at most %d", MaxStructure)
	}
	if cfg.PhysVRegs > 0 && cfg.PhysVRegs <= isa.NumLogicalV {
		return ooosim.Config{}, fmt.Errorf("vregs %d: the OOOVA needs more than %d physical vector registers", cfg.PhysVRegs, isa.NumLogicalV)
	}
	var err error
	if cfg.Commit, err = ParseCommit(c.Commit); err != nil {
		return ooosim.Config{}, err
	}
	if cfg.LoadElim, err = ParseElim(c.Elim); err != nil {
		return ooosim.Config{}, err
	}
	return cfg, nil
}

// RefConfig resolves the surface onto a refsim.Config. The OOOVA-only
// fields must be absent, so a setting the reference machine cannot honour
// is an error rather than silently ignored; the latencies must be
// non-negative.
func (c SimConfig) RefConfig() (refsim.Config, error) {
	if c.VRegs != 0 || c.Queues != 0 || c.ROB != 0 || c.CommitWidth != 0 ||
		c.Commit != "" || (c.Elim != "" && c.Elim != "none") {
		return refsim.Config{}, errors.New("vregs/queues/rob/commit_width/commit/elim do not apply to the reference machine")
	}
	if c.Latency < 0 || c.ScalarLatency < 0 {
		return refsim.Config{}, errors.New("config values must be non-negative")
	}
	cfg := refsim.DefaultConfig()
	if c.Latency != 0 {
		cfg.MemLatency = c.Latency
	}
	if c.ScalarLatency != 0 {
		cfg.ScalarMemLatency = c.ScalarLatency
	}
	return cfg, nil
}

// Common carries the flags every oovec command shares: the -j worker-count
// request and -v verbosity. Register them with RegisterCommon so the flag
// names, help text and resolution logic cannot drift between commands.
type Common struct {
	// Jobs is the raw -j value; Workers resolves it.
	Jobs int
	// Verbose enables progress output on stderr.
	Verbose bool
}

// RegisterCommon registers -j and -v on the flag set (commands pass
// flag.CommandLine) and returns the destination struct.
func RegisterCommon(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.IntVar(&c.Jobs, "j", 0, "parallel simulation workers, each building a simulator machine per run (0 = one per core, 1 = serial); output is identical for every value")
	fs.BoolVar(&c.Verbose, "v", false, "verbose: print the resolved worker count to stderr")
	return c
}

// Workers resolves the -j request (0 = one worker per core).
func (c *Common) Workers() int { return engine.Workers(c.Jobs) }

// Announce prints the resolved worker count to stderr under -v.
func (c *Common) Announce(cmd string) {
	if c.Verbose {
		fmt.Fprintf(os.Stderr, "%s: using %d workers\n", cmd, c.Workers())
	}
}

// CacheFlags carries the durable result-store flags every simulation
// command shares: -cache-dir points sweeps, benches and the daemon at one
// on-disk content-addressed store, so repeated invocations across process
// restarts only simulate their delta. Register with RegisterCache so the
// flag names and semantics cannot drift between commands.
type CacheFlags struct {
	// Dir is the store directory; empty disables the disk tier.
	Dir string
	// DiskBytes bounds the store's size (least-recently-used entry files
	// are evicted past it; <= 0 = unbounded).
	DiskBytes int64
}

// RegisterCache registers -cache-dir and -cache-disk-bytes on the flag set
// and returns the destination struct.
func RegisterCache(fs *flag.FlagSet) *CacheFlags {
	c := &CacheFlags{}
	fs.StringVar(&c.Dir, "cache-dir", "", "directory of the durable content-addressed result store; results persist across runs and are shared with every command pointed at the same directory (empty = in-memory caching only)")
	fs.Int64Var(&c.DiskBytes, "cache-disk-bytes", 256<<20, "result store size bound in bytes; least-recently-used entries are evicted past it (0 = unbounded)")
	return c
}

// Open opens the configured store, or returns (nil, nil) when -cache-dir
// is unset. Callers must Close the store on every exit path that should
// keep completed work (including SIGINT), flushing write-behind saves.
func (c *CacheFlags) Open() (*store.Store, error) {
	if c.Dir == "" {
		return nil, nil
	}
	return store.Open(c.Dir, c.DiskBytes)
}

// WriteFile creates path, streams content through write, then syncs and
// closes the file, reporting the first error from any step. A full disk
// often only surfaces at Sync or Close; swallowing those (the classic
// `defer f.Close()`) would leave a silently truncated file behind an
// exit status of 0.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if err := write(f); err != nil {
		return err
	}
	return f.Sync()
}
