// Package sim exercises the hotpath analyzer on generic code: a generic
// //ovlint:hotpath root is checked like any other, and a method of a generic
// type reached from a root in another package (hot's step calls Keep) is
// traversed through its instantiation.
package sim

// Model is stepped through an interface: the traversal does not follow the
// call, so each model annotates its own Step.
type Model interface {
	Step(i int)
}

//ovlint:hotpath the shared instruction loop
func Run(m Model, n int) {
	for i := 0; i < n; i++ {
		m.Step(i)
		seen := make([]int, 1) // want `make allocates in Run`
		_ = seen
	}
}

// Buf is not annotated itself; hot's root reaches its method through an
// instantiated receiver.
type Buf[T any] struct{ last *T }

// Keep allocates per call.
func (b *Buf[T]) Keep(v T) {
	b.last = new(T) // want `new allocates in Keep, reachable from //ovlint:hotpath root \(\*td/hot.sim\).step`
	*b.last = v
}
