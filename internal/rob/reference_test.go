package rob

import (
	"math/rand"
	"testing"
)

// refROB is a linear-scan reference for the commit ring: a ring of the
// last `width` commit cycles for the width check and a ring of the last
// `size` for admission, whose occupancy is a scan counting the commits
// after the query cycle.
type refROB struct {
	width  int
	recent []int64
	ri     int
	filled int
	last   int64
	slots  []int64 // the last size commits, oldest at next once full
	next   int
	held   int
}

func newRefROB(size, width int) *refROB {
	return &refROB{width: width, recent: make([]int64, width), slots: make([]int64, size)}
}

func (r *refROB) AdmitConstraint() int64 {
	if r.held < len(r.slots) {
		return 0
	}
	return r.slots[r.next]
}

func (r *refROB) Occupied(now int64) int {
	occ := 0
	for _, c := range r.slots[:r.held] {
		if c > now {
			occ++
		}
	}
	return occ
}

func (r *refROB) Commit(ready int64) int64 {
	c := ready + 1
	if c < r.last {
		c = r.last
	}
	if r.filled >= r.width {
		if min := r.recent[r.ri] + 1; c < min {
			c = min
		}
	}
	r.recent[r.ri] = c
	r.ri = (r.ri + 1) % r.width
	if r.filled < r.width {
		r.filled++
	}
	r.last = c
	r.slots[r.next] = c
	r.next = (r.next + 1) % len(r.slots)
	r.held = min(r.held+1, len(r.slots))
	return c
}

// checkAgainstReference replays ops on a ROB and on the reference and fails
// at the first commit cycle, admission constraint or occupancy that
// differs. Each byte is one operation, selected by its low two bits:
//
//	0, 1  commit an instruction ready 20 cycles before to 43 after the
//	      previous one, or for op 1 with arg >= 56 one ready 8,192 to a
//	      million cycles later
//	2     sample occupancy up to 55 cycles before the last commit, so
//	      successive samples mostly increase and sometimes decrease, or
//	      for arg >= 56 8,192 to a million cycles after it
//	3     snapshot the ROB and restore it into a fresh one, or sample
//	      occupancy up to ~500 cycles before the last commit
func checkAgainstReference(t testing.TB, size, width int, ops []byte) {
	t.Helper()
	r, ref := New(size, width), newRefROB(size, width)
	var ready int64
	for i, b := range ops {
		arg := int64(b >> 2)
		switch b & 3 {
		case 0, 1:
			if got, want := r.AdmitConstraint(), ref.AdmitConstraint(); got != want {
				t.Fatalf("size %d width %d op %d: AdmitConstraint %d, reference %d", size, width, i, got, want)
			}
			if b&3 == 1 && arg >= 56 {
				ready += 8192 << (arg % 8)
			} else {
				ready = max(ready+arg-20, 0)
			}
			if got, want := r.Commit(ready), ref.Commit(ready); got != want {
				t.Fatalf("size %d width %d op %d: Commit(%d) = %d, reference %d", size, width, i, ready, got, want)
			}
			continue
		case 2:
			if arg >= 56 {
				arg = -8192 << (arg % 8)
			}
		case 3:
			if arg&1 == 0 {
				fresh := New(size, width)
				if err := fresh.Restore(r.Snapshot()); err != nil {
					t.Fatalf("size %d width %d op %d: Restore: %v", size, width, i, err)
				}
				r = fresh
				continue
			}
			arg *= 16
		}
		now := r.LastCommit() - arg
		if got, want := r.Occupied(now), ref.Occupied(now); got != want {
			t.Fatalf("size %d width %d op %d: Occupied(%d) = %d, reference %d", size, width, i, now, got, want)
		}
	}
}

// TestROBMatchesWindowReference drives the commit ring and the reference
// with the same random operations over sizes and commit widths, widths
// above the size included.
func TestROBMatchesWindowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 4000)
	for _, size := range []int{1, 2, 4, 64, 128, 1024} {
		for _, width := range []int{1, 2, 4, 8} {
			for seed := 0; seed < 4; seed++ {
				rng.Read(ops)
				checkAgainstReference(t, size, width, ops)
			}
		}
	}
}

// FuzzROB checks fuzzed operation sequences, sizes up to 1024
// (cli.MaxStructure) and widths against the reference.
func FuzzROB(f *testing.F) {
	f.Add(uint16(63), uint8(3), []byte{0, 4, 8, 2, 6, 3, 7, 1, 1, 1, 1, 1, 2, 10, 255})
	f.Add(uint16(0), uint8(7), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 6, 3, 11, 1, 2})
	f.Add(uint16(127), uint8(0), []byte{80, 80, 80, 2, 250, 3, 66, 2, 7})
	f.Add(uint16(1023), uint8(3), []byte{1, 1, 253, 2, 1, 229, 1, 254, 2, 3, 6, 1, 1, 2})
	f.Fuzz(func(t *testing.T, size uint16, width uint8, ops []byte) {
		checkAgainstReference(t, 1+int(size)%1024, 1+int(width)%8, ops)
	})
}
