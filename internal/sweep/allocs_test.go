//go:build !race

// The allocation guards live behind !race: the race detector instruments
// allocations and makes sync.Pool drop a share of what is put back.

package sweep

import (
	"runtime"
	"runtime/debug"
	"testing"

	"oovec/internal/ooosim"
	"oovec/internal/tgen"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSecondGridReusesMachines runs the same uncached REF and OOOVA grids
// twice. Every point checks its machine out of the process-wide pools, so
// the second pass finds machines already built, shaped and grown: it must
// allocate less than one fresh machine's growth — the construction and
// buffers a machine built for the run pays over a reused one. GC is off so the pools keep what the first pass put
// back, and one P keeps every Get on the P its Put went to.
func TestSecondGridReusesMachines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	p, _ := tgen.PresetByName("hydro2d")
	p.Insns = 20000
	tr := tgen.Generate(p)
	base := ooosim.DefaultConfig()
	regs, lats := []int{16, 64}, []int64{1, 50}
	grids := func() {
		mustGrid(refGrid(tr, lats, Opts{Workers: 1}))
		mustGrid(oooGrid(tr, base, regs, lats, Opts{Workers: 1}))
	}
	grids()
	second := allocated(grids)

	cfg := base
	cfg.PhysVRegs = regs[len(regs)-1]
	fresh := allocated(func() { ooosim.NewMachine(cfg).Run(tr) })
	m := ooosim.NewMachine(cfg)
	m.Run(tr)
	reused := allocated(func() { m.Run(tr) })
	growth := fresh - reused
	t.Logf("second pass of %d points: %d B; one fresh run %d B, reused %d B", len(lats)*(1+len(regs)), second, fresh, reused)
	if second >= growth {
		t.Errorf("second pass of identical grids allocated %d B, want < %d B (one machine's growth): grids are not reusing pooled machines",
			second, growth)
	}
}
