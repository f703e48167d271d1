package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x1000, 0xdeadbeef)
	if got := m.ReadWord(0x1000); got != 0xdeadbeef {
		t.Errorf("ReadWord = %#x", got)
	}
	// Sub-word addresses alias the containing word.
	if got := m.ReadWord(0x1003); got != 0xdeadbeef {
		t.Errorf("unaligned ReadWord = %#x", got)
	}
	if got := m.ReadWord(0x2000); got != 0 {
		t.Errorf("unwritten word = %#x, want 0", got)
	}
}

func TestMemoryVectorStrided(t *testing.T) {
	m := NewMemory()
	vals := []uint64{1, 2, 3, 4}
	m.WriteVector(0x100, vals, 32)
	got := m.ReadVector(0x100, 4, 32)
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("elem %d = %d, want %d", i, got[i], vals[i])
		}
	}
	// The strided writes must not have touched intermediate words.
	if got := m.ReadWord(0x108); got != 0 {
		t.Errorf("gap word = %d, want 0", got)
	}
	if m.Footprint() != 4 {
		t.Errorf("footprint = %d, want 4", m.Footprint())
	}
}

func TestMemoryNegativeStride(t *testing.T) {
	m := NewMemory()
	m.WriteVector(0x200, []uint64{10, 20, 30}, -8)
	if m.ReadWord(0x200) != 10 || m.ReadWord(0x1f8) != 20 || m.ReadWord(0x1f0) != 30 {
		t.Error("negative-stride write laid out incorrectly")
	}
	got := m.ReadVector(0x200, 3, -8)
	if got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("negative-stride read = %v", got)
	}
}

func TestPropertyMemoryLastWriteWins(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMemory()
		shadow := map[uint64]uint64{}
		for i := 0; i < 500; i++ {
			addr := uint64(r.Intn(64)) * 8
			v := r.Uint64()
			m.WriteWord(addr, v)
			shadow[addr] = v
		}
		for a, v := range shadow {
			if m.ReadWord(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
