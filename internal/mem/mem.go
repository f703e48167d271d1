// Package mem provides a functional (value-level) memory image. The
// simulators time memory traffic themselves (the OOOVA through its M queue
// and address-bus scheduler, REF through its in-order bus); Memory holds
// the values the load-elimination checks of package funcsim compare.
package mem

// Memory is a sparse functional memory of 64-bit words. The simulators are
// timing simulators and do not need values, but the dynamic load elimination
// tests and the examples use Memory to check value-level correctness of the
// elimination (an eliminated load must observe exactly the bytes the memory
// holds).
type Memory struct {
	words map[uint64]uint64
}

// NewMemory returns an empty memory; unwritten words read as zero.
func NewMemory() *Memory {
	return &Memory{words: make(map[uint64]uint64)}
}

// align returns the word-aligned address containing addr.
func align(addr uint64) uint64 { return addr &^ 7 }

// ReadWord returns the 64-bit word containing addr.
func (m *Memory) ReadWord(addr uint64) uint64 {
	return m.words[align(addr)]
}

// WriteWord stores a 64-bit word at the word containing addr.
func (m *Memory) WriteWord(addr uint64, v uint64) {
	m.words[align(addr)] = v
}

// ReadVector reads n words starting at base with the given byte stride.
func (m *Memory) ReadVector(base uint64, n int, stride int64) []uint64 {
	out := make([]uint64, n)
	a := int64(base)
	for i := 0; i < n; i++ {
		out[i] = m.ReadWord(uint64(a))
		a += stride
	}
	return out
}

// WriteVector writes the given words starting at base with the given byte
// stride.
func (m *Memory) WriteVector(base uint64, vals []uint64, stride int64) {
	a := int64(base)
	for _, v := range vals {
		m.WriteWord(uint64(a), v)
		a += stride
	}
}

// Footprint returns the number of distinct words ever written.
func (m *Memory) Footprint() int { return len(m.words) }
