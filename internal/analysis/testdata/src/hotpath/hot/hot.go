// Package hot exercises the hotpath analyzer: allocation sites inside the
// static call graph of a //ovlint:hotpath root are diagnostics, coldpath
// prunes, waivers suppress, unreachable code is ignored, and calls of
// methods of generic types (simloop.Buf.Keep) are followed into their
// declaration.
package hot

import simloop "td/sim"

type point struct{ x, y int }

type sim struct {
	buf  []int64
	fn   func()
	kept simloop.Buf[int64]
}

//ovlint:hotpath per-instruction step, must be allocation-free
func (s *sim) step(v int64) {
	s.buf = append(s.buf, v) // append within reserved capacity: no diagnostic
	s.record(v)
	s.box(v)
	s.setup()
	s.waived()
	s.kept.Keep(v)
}

// record is reachable from the step root: its allocations are flagged.
func (s *sim) record(v int64) {
	tmp := make([]int64, 4) // want `make allocates`
	tmp[0] = v
	p := &point{x: int(v)} // want `address of composite literal allocates`
	_ = p
	s.fn = func() {} // want `function literal allocates its closure`
}

func sink(v any) { _ = v }

// box passes a concrete non-pointer value to an interface parameter.
func (s *sim) box(v int64) {
	sink(v) // want `boxes a value into interface`
}

// setup is pruned from the traversal: per-run work is amortised.
//
//ovlint:coldpath once per run
func (s *sim) setup() {
	s.buf = make([]int64, 0, 1024)
}

// waived demonstrates a per-line waiver inside hot code.
func (s *sim) waived() {
	scratch := make([]int64, 8) //ovlint:allow hotpath pooled scratch, measured zero amortised allocations
	_ = scratch
}

// unrelated is never reached from a hotpath root: no diagnostics.
func unrelated() []int {
	return []int{1, 2, 3}
}
