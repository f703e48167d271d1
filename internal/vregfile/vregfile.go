// Package vregfile models vector register file port structures and the
// element-level timing used for chaining.
//
// Two port organisations appear in the paper:
//
//   - The reference C3400 file: the eight vector registers are grouped in
//     pairs ("banks"); each bank shares two read ports and one write port.
//     The Convex compiler scheduled code to avoid port conflicts; dynamic
//     execution can still hit them, and the simulator charges stalls.
//
//   - The OOOVA file: renaming shuffles compiler-scheduled port assignments,
//     so the paper gives every physical register one dedicated read port and
//     one dedicated write port. Conflicts then only arise when two in-flight
//     instructions want the *same* physical register's port simultaneously.
//
// Both organisations have the same methods: given the registers an
// instruction reads and writes, its earliest possible issue cycle, and the
// number of cycles it will occupy the ports (its vector length), Acquire
// returns the earliest conflict-free start cycle and books the ports. The
// reference machine holds a *BankedFile and the OOOVA a *FlatFile.
package vregfile

// RegsPerBank is the C3400 grouping: pairs of vector registers share ports.
const RegsPerBank = 2

// ReadPortsPerBank and WritePortsPerBank are the per-bank port counts.
const (
	ReadPortsPerBank  = 2
	WritePortsPerBank = 1
)

// BankedFile is the reference machine's register file organisation.
type BankedFile struct {
	readFree  [][ReadPortsPerBank]int64 // per bank, per port: next free cycle
	writeFree []int64                   // per bank: next free cycle
	conflicts int64

	// claims is plan's scratch space (an instruction reads at most four
	// registers); keeping it here keeps the per-instruction hot path
	// allocation-free.
	claims [4]portClaim //ovlint:config per-instruction scratch, dead between calls
}

// NewBankedFile returns a banked file for n vector registers (n must be a
// multiple of RegsPerBank).
func NewBankedFile(n int) *BankedFile {
	banks := (n + RegsPerBank - 1) / RegsPerBank
	return &BankedFile{
		readFree:  make([][ReadPortsPerBank]int64, banks),
		writeFree: make([]int64, banks),
	}
}

// portClaim identifies one read port of one bank.
type portClaim struct {
	bank, port int
}

// plan assigns each read to the least-busy available port of its bank and
// returns the earliest feasible start plus the number of port claims
// recorded in f.claims. With at most a handful of reads, a linear scan over
// the claims already made replaces a per-call map.
func (f *BankedFile) plan(reads []int, write int, earliest int64) (int64, int) {
	start := earliest
	n := 0
	for _, r := range reads {
		bank := r / RegsPerBank
		// Pick the unclaimed port with the earliest free time.
		best, bestFree := -1, int64(1)<<62
		for p := 0; p < ReadPortsPerBank; p++ {
			taken := false
			for i := 0; i < n; i++ {
				if f.claims[i].bank == bank && f.claims[i].port == p {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			if f.readFree[bank][p] < bestFree {
				best, bestFree = p, f.readFree[bank][p]
			}
		}
		if best < 0 {
			// More than two reads from one bank in a single instruction
			// cannot happen with two-source instructions; be safe anyway.
			best, bestFree = 0, f.readFree[bank][0]
		}
		if n == len(f.claims) {
			// The ISA presents at most three reads per instruction; fail
			// loudly rather than silently under-book ports.
			panic("vregfile: more reads than claim slots")
		}
		f.claims[n] = portClaim{bank, best}
		n++
		if bestFree > start {
			start = bestFree
		}
	}
	if write >= 0 {
		bank := write / RegsPerBank
		if f.writeFree[bank] > start {
			start = f.writeFree[bank]
		}
	}
	return start, n
}

// Peek returns the start Acquire would choose, without booking.
//
//ovlint:hotpath probed once per vector operand set
func (f *BankedFile) Peek(reads []int, write int, earliest int64) int64 {
	start, _ := f.plan(reads, write, earliest)
	return start
}

// Acquire books one read port for every register in reads and the write
// port for write (pass write < 0 for none) for dur consecutive cycles
// starting no earlier than earliest, and returns the chosen start cycle.
// Reads from the same bank compete for that bank's two read ports; the
// write competes for the bank's single write port.
//
//ovlint:hotpath called once per vector instruction
func (f *BankedFile) Acquire(reads []int, write int, earliest, dur int64) int64 {
	if dur <= 0 {
		dur = 1
	}
	start, n := f.plan(reads, write, earliest)
	if start > earliest {
		f.conflicts += start - earliest
	}
	for _, c := range f.claims[:n] {
		f.readFree[c.bank][c.port] = start + dur
	}
	if write >= 0 {
		f.writeFree[write/RegsPerBank] = start + dur
	}
	return start
}

// ConflictCycles returns the cumulative number of cycles instructions were
// delayed by port conflicts.
func (f *BankedFile) ConflictCycles() int64 { return f.conflicts }

// Reset clears all port state.
func (f *BankedFile) Reset() {
	for i := range f.readFree {
		f.readFree[i] = [ReadPortsPerBank]int64{}
	}
	for i := range f.writeFree {
		f.writeFree[i] = 0
	}
	f.conflicts = 0
}

// FlatFile is the OOOVA organisation: every (physical) register has one
// dedicated read port and one dedicated write port.
type FlatFile struct {
	readFree  []int64
	writeFree []int64
	conflicts int64
}

// NewFlatFile returns a flat file for n physical registers.
func NewFlatFile(n int) *FlatFile {
	return &FlatFile{
		readFree:  make([]int64, n),
		writeFree: make([]int64, n),
	}
}

// Peek returns the start Acquire would choose, without booking.
//
//ovlint:hotpath probed once per vector operand set
func (f *FlatFile) Peek(reads []int, write int, earliest int64) int64 {
	start := earliest
	for _, r := range reads {
		if f.readFree[r] > start {
			start = f.readFree[r]
		}
	}
	if write >= 0 && f.writeFree[write] > start {
		start = f.writeFree[write]
	}
	return start
}

// Acquire books the dedicated port of every register in reads and of write
// (pass write < 0 for none) for dur consecutive cycles starting no earlier
// than earliest, and returns the chosen start cycle.
//
//ovlint:hotpath called once per vector instruction
func (f *FlatFile) Acquire(reads []int, write int, earliest, dur int64) int64 {
	if dur <= 0 {
		dur = 1
	}
	start := f.Peek(reads, write, earliest)
	if start > earliest {
		f.conflicts += start - earliest
	}
	for _, r := range reads {
		f.readFree[r] = start + dur
	}
	if write >= 0 {
		f.writeFree[write] = start + dur
	}
	return start
}

// ConflictCycles returns the cumulative number of cycles instructions were
// delayed by port conflicts.
func (f *FlatFile) ConflictCycles() int64 { return f.conflicts }

// Reset clears all port state.
func (f *FlatFile) Reset() {
	for i := range f.readFree {
		f.readFree[i] = 0
		f.writeFree[i] = 0
	}
	f.conflicts = 0
}

// Timing records when a register's value becomes available, at element
// granularity, for chaining decisions.
type Timing struct {
	// ChainStart is the cycle the first element is written — the point a
	// chained consumer may begin reading.
	ChainStart int64
	// Complete is the cycle the last element is written.
	Complete int64
	// FromMem marks values produced by memory loads. Neither machine chains
	// loads into functional units: consumers of FromMem values wait for
	// Complete.
	FromMem bool
}

// ReadyFor returns the cycle at which a consumer may begin reading the value:
// ChainStart+1 if chaining is permitted (producer was a functional unit and
// the consumer is chainable), else Complete.
func (t Timing) ReadyFor(chainable bool) int64 {
	if chainable && !t.FromMem {
		return t.ChainStart + 1
	}
	return t.Complete
}
