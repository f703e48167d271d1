// Package machine exercises the snapshotcomplete analyzer: every field of a
// type with a Snapshot/Restore pair must be read by Snapshot or carry an
// //ovlint:config annotation.
package machine

// State is the checkpoint payload.
type State struct {
	Cycle int64
	PC    int64
}

type Machine struct {
	cycle int64
	pc    int64
	heat  int64 // want `field Machine.heat is not captured`
	width int   //ovlint:config structural size, fixed at construction
}

func (m *Machine) Snapshot() State {
	return State{Cycle: m.cycle, PC: m.pc}
}

func (m *Machine) Restore(st State) {
	m.cycle, m.pc = st.Cycle, st.PC
}

// core's unexported pair is matched case-insensitively, like the real
// machines' snapshot/restore.
type core struct {
	ticks int64
	skew  int64 // want `field core.skew is not captured`
}

func (c *core) snapshot() int64 { return c.ticks }
func (c *core) restore(v int64) { c.ticks = v }

// Sampler has Snapshot but no Restore: not a checkpointable machine, so its
// uncaptured field is fine.
type Sampler struct {
	window int64
	peak   int64
}

func (s *Sampler) Snapshot() int64 { return s.window }

// Window carries derived fields. Restore rebuilds resident through a
// helper, so it passes; it never assigns stale, so that field is reported.
// A derived directive with no reason does not waive anything.
type Window struct {
	leave    []int64
	resident int   //ovlint:derived recomputed from leave by Restore
	stale    int64 //ovlint:derived recomputed on demand // want `field Window.stale is marked //ovlint:derived but \(Window\).Restore never assigns it`
	//ovlint:derived
	bare int // want `field Window.bare is not captured`
}

func (w *Window) Snapshot() []int64 { return append([]int64(nil), w.leave...) }

func (w *Window) Restore(leave []int64) {
	w.leave = append(w.leave[:0], leave...)
	w.rebuild()
}

func (w *Window) rebuild() {
	w.resident = 0
	for _, l := range w.leave {
		if l > 0 {
			w.resident++
		}
	}
}
