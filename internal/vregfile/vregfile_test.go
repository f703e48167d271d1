package vregfile

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBankedNoConflictDifferentBanks(t *testing.T) {
	f := NewBankedFile(8)
	// v0 (bank 0) read, v2 (bank 1) read, v4 (bank 2) write: all distinct banks.
	start := f.Acquire([]int{0, 2}, 4, 10, 64)
	if start != 10 {
		t.Errorf("start = %d, want 10 (no conflicts)", start)
	}
	if f.ConflictCycles() != 0 {
		t.Errorf("conflicts = %d, want 0", f.ConflictCycles())
	}
}

func TestBankedTwoReadsSameBankUseBothPorts(t *testing.T) {
	f := NewBankedFile(8)
	// v0 and v1 share bank 0, which has two read ports: no conflict.
	start := f.Acquire([]int{0, 1}, -1, 5, 32)
	if start != 5 {
		t.Errorf("start = %d, want 5", start)
	}
}

func TestBankedThirdReadConflicts(t *testing.T) {
	f := NewBankedFile(8)
	f.Acquire([]int{0}, -1, 0, 100) // occupies bank0 read port A until 100
	f.Acquire([]int{1}, -1, 0, 100) // occupies bank0 read port B until 100
	start := f.Acquire([]int{0}, -1, 0, 10)
	if start != 100 {
		t.Errorf("third bank-0 read start = %d, want 100", start)
	}
	if f.ConflictCycles() != 100 {
		t.Errorf("conflicts = %d, want 100", f.ConflictCycles())
	}
}

func TestBankedWritePortConflict(t *testing.T) {
	f := NewBankedFile(8)
	f.Acquire(nil, 0, 0, 50) // write v0: bank 0 write port busy until 50
	start := f.Acquire(nil, 1, 0, 10)
	if start != 50 {
		t.Errorf("write to same bank start = %d, want 50", start)
	}
	// A write to another bank is free.
	start = f.Acquire(nil, 2, 0, 10)
	if start != 0 {
		t.Errorf("write to other bank start = %d, want 0", start)
	}
}

func TestBankedReadAndWriteIndependentPorts(t *testing.T) {
	f := NewBankedFile(8)
	f.Acquire(nil, 0, 0, 50)                                 // write port of bank 0 busy
	if start := f.Acquire([]int{1}, -1, 0, 10); start != 0 { // read port free
		t.Errorf("read during write start = %d, want 0", start)
	}
}

func TestBankedReset(t *testing.T) {
	f := NewBankedFile(8)
	f.Acquire([]int{0, 1}, 2, 0, 100)
	f.Acquire([]int{0}, -1, 0, 10)
	f.Reset()
	if f.ConflictCycles() != 0 {
		t.Error("reset did not clear conflicts")
	}
	if start := f.Acquire([]int{0}, -1, 0, 10); start != 0 {
		t.Errorf("post-reset start = %d, want 0", start)
	}
}

func TestFlatDedicatedPorts(t *testing.T) {
	f := NewFlatFile(16)
	// Distinct registers: never conflict.
	if start := f.Acquire([]int{0, 1}, 2, 0, 64); start != 0 {
		t.Errorf("start = %d, want 0", start)
	}
	if start := f.Acquire([]int{3, 4}, 5, 0, 64); start != 0 {
		t.Errorf("disjoint start = %d, want 0", start)
	}
	if f.ConflictCycles() != 0 {
		t.Errorf("conflicts = %d", f.ConflictCycles())
	}
}

func TestFlatSameRegisterReadPortSerialises(t *testing.T) {
	f := NewFlatFile(16)
	f.Acquire([]int{7}, -1, 0, 64)
	start := f.Acquire([]int{7}, -1, 0, 64)
	if start != 64 {
		t.Errorf("second reader of same phys reg start = %d, want 64", start)
	}
	if f.ConflictCycles() != 64 {
		t.Errorf("conflicts = %d, want 64", f.ConflictCycles())
	}
}

func TestFlatWriteAfterWriteSamePort(t *testing.T) {
	f := NewFlatFile(16)
	f.Acquire(nil, 3, 0, 10)
	if start := f.Acquire(nil, 3, 0, 10); start != 10 {
		t.Errorf("WW same reg start = %d, want 10", start)
	}
}

func TestTimingReadyFor(t *testing.T) {
	fu := Timing{ChainStart: 100, Complete: 163, FromMem: false}
	if got := fu.ReadyFor(true); got != 101 {
		t.Errorf("chainable FU value ready = %d, want 101", got)
	}
	if got := fu.ReadyFor(false); got != 163 {
		t.Errorf("non-chainable read of FU value ready = %d, want 163", got)
	}
	ld := Timing{ChainStart: 100, Complete: 163, FromMem: true}
	if got := ld.ReadyFor(true); got != 163 {
		t.Errorf("load value must not chain: ready = %d, want 163", got)
	}
}

// portFile is the booking method both port organisations share.
type portFile interface {
	Acquire(reads []int, write int, earliest, dur int64) int64
}

func TestPropertyAcquireNeverBeforeEarliest(t *testing.T) {
	check := func(mk func() portFile, maxReg int) func(int64) bool {
		return func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			f := mk()
			clock := int64(0)
			for i := 0; i < 300; i++ {
				earliest := clock + int64(r.Intn(3))
				nr := r.Intn(3)
				reads := make([]int, nr)
				for j := range reads {
					reads[j] = r.Intn(maxReg)
				}
				write := -1
				if r.Intn(2) == 0 {
					write = r.Intn(maxReg)
				}
				dur := int64(1 + r.Intn(128))
				start := f.Acquire(reads, write, earliest, dur)
				if start < earliest {
					return false
				}
				clock = earliest
			}
			return true
		}
	}
	if err := quick.Check(check(func() portFile { return NewBankedFile(8) }, 8),
		&quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("banked: %v", err)
	}
	if err := quick.Check(check(func() portFile { return NewFlatFile(64) }, 64),
		&quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("flat: %v", err)
	}
}

func TestPropertyFlatPortExclusivity(t *testing.T) {
	// For any sequence of acquisitions, intervals booked on the same
	// register's read port never overlap.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		file := NewFlatFile(8)
		type iv struct{ s, e int64 }
		perReg := map[int][]iv{}
		for i := 0; i < 200; i++ {
			reg := r.Intn(8)
			earliest := int64(r.Intn(50))
			dur := int64(1 + r.Intn(20))
			start := file.Acquire([]int{reg}, -1, earliest, dur)
			for _, prev := range perReg[reg] {
				if start < prev.e && prev.s < start+dur {
					return false
				}
			}
			perReg[reg] = append(perReg[reg], iv{start, start + dur})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
