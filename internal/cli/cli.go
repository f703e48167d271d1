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

// CheckOOO enforces the bounds every surface accepting an OOOVA
// configuration — ovsim, the ovserve API — applies before a run: no
// negative field, and more physical vector registers than architectural
// ones, since renaming needs at least one spare (the simulator panics
// without it). Zero fields keep the paper's defaults.
func CheckOOO(cfg ooosim.Config) error {
	if cfg.PhysVRegs < 0 || cfg.QueueSlots < 0 || cfg.ROBSize < 0 || cfg.CommitWidth < 0 ||
		cfg.MemLatency < 0 || cfg.ScalarMemLatency < 0 {
		return errors.New("config values must be non-negative")
	}
	if cfg.PhysVRegs > 0 && cfg.PhysVRegs <= isa.NumLogicalV {
		return fmt.Errorf("vregs %d: the OOOVA needs more than %d physical vector registers", cfg.PhysVRegs, isa.NumLogicalV)
	}
	return nil
}

// CheckRef is CheckOOO for the reference machine, whose only bounded
// fields are its latencies.
func CheckRef(cfg refsim.Config) error {
	if cfg.MemLatency < 0 || cfg.ScalarMemLatency < 0 {
		return errors.New("config values must be non-negative")
	}
	return nil
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
	fs.IntVar(&c.Jobs, "j", 0, "parallel simulation workers, each reusing pooled simulator machines (0 = one per core, 1 = serial); output is identical for every value")
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
