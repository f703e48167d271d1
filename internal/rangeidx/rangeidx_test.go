package rangeidx

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// refItem is the reference model's view of one indexed item.
type refItem struct {
	start, end uint64
	marked     bool
	live       bool
}

// want reports whether a linear scan puts the item in the result of a
// query over [start, end]: a live item, marked if onlyMarked, that passes
// the overlap test — any live one, for an inverted query.
func (r refItem) want(start, end uint64, onlyMarked bool) bool {
	if !r.live || onlyMarked && !r.marked {
		return false
	}
	return start > end || r.start <= end && start <= r.end
}

// checkQuery requires Query's result to be exactly the linear scan's.
func checkQuery(t *testing.T, x *Index, ref []refItem, start, end uint64, onlyMarked bool) {
	t.Helper()
	res := x.Query(start, end, onlyMarked)
	for i := 0; i < len(res)*64; i++ {
		in := res[i>>6]&(1<<(i&63)) != 0
		if i >= len(ref) {
			if in {
				t.Fatalf("query returns item %d of an index of %d", i, len(ref))
			}
			continue
		}
		if r := ref[i]; in != r.want(start, end, onlyMarked) {
			t.Fatalf("query [%#x, %#x] marked=%v: item %d over [%#x, %#x] (live %v, marked %v) in result %v, scan says %v",
				start, end, onlyMarked, i, r.start, r.end, r.live, r.marked, in, !in)
		}
	}
}

// addrs are the addresses the fuzzer's ranges start at: address 0, both
// sides of block boundaries, the top of the address space and distant
// blocks, which share buckets in the small tables.
var addrs = []uint64{0, 8, 4088, 4095, 4096, 8191, 8192, 12280, 1 << 20,
	1<<20 + 4095, 64 << 12, 128 << 12, math.MaxUint64 - 4096, math.MaxUint64 - 7}

// spans are the range lengths minus one: a scalar, a block's worth, a
// block straddle, three blocks, a gather's region and an inverted range
// (start > end).
var spans = []uint64{7, 511, 4095, 4096, 12287, 2*128*128 - 1, math.MaxUint64}

// decodeRange turns three bytes into a range.
func decodeRange(a, s, off byte) (uint64, uint64) {
	start := addrs[int(a)%len(addrs)] + uint64(off)*8
	if sp := spans[int(s)%len(spans)]; sp == math.MaxUint64 {
		return start + 64, start // inverted
	} else if start > math.MaxUint64-sp {
		return start, math.MaxUint64
	} else {
		return start, start + sp
	}
}

// FuzzIndex decodes the input into a sequence of Insert, Remove, Query and
// Reset calls on an index of 1 to 200 items and checks every query against
// a linear scan over a list of the same ranges.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 0, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{1, 0, 0, 3, 2, 0, 0, 5, 6, 1, 3, 0, 1, 0, 2, 2, 4, 0, 9})
	f.Add([]byte{6, 0, 5, 13, 3, 7, 2, 0, 6, 6, 1, 4, 5, 2, 2, 12, 1, 0, 3, 7, 0, 2})
	f.Add(binary.LittleEndian.AppendUint64([]byte{5, 4, 9}, 0x0102030405060708))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := []int{1, 2, 16, 63, 64, 65, 128, 200}[data[0]%8]
		x := New(n)
		ref := make([]refItem, n)
		for k := 1; k+3 < len(data); k += 4 {
			op, item := data[k]%8, int(data[k+1])%n
			start, end := decodeRange(data[k+1]/16, data[k+2], data[k+3])
			switch op {
			case 0, 1, 2: // insert, replacing what the item held
				marked := data[k+3]&1 == 1
				x.Insert(item, start, end, marked)
				ref[item] = refItem{start: start, end: end, marked: marked, live: true}
			case 3:
				x.Remove(item)
				ref[item] = refItem{}
			case 4, 5, 6:
				checkQuery(t, x, ref, start, end, op == 6)
			case 7:
				x.Reset()
				clear(ref)
			}
		}
		for _, r := range ref {
			if r.live {
				checkQuery(t, x, ref, r.start, r.end, false)
			}
		}
	})
}

// TestQueryDropsBucketCollisions indexes one item in block 0 of a
// four-bucket table and queries the blocks after it: some of them hash to
// block 0's bucket, and the exact test must drop the item for all of them.
func TestQueryDropsBucketCollisions(t *testing.T) {
	x := New(1)
	x.Insert(0, 0, 7, false)
	collisions := 0
	for b := uint64(1); b < 64; b++ {
		if &x.bucket(b)[0] == &x.bucket(0)[0] {
			collisions++
		}
		if got := x.Query(b<<blockShift, b<<blockShift+7, false); got[0] != 0 {
			t.Fatalf("query of block %d returned the item of block 0", b)
		}
	}
	if collisions == 0 {
		t.Fatal("no block among 1..63 shares block 0's bucket in a four-bucket table")
	}
	if got := x.Query(0, 0, false); got[0] != 1 {
		t.Fatalf("query of byte 0 = %b, want the item", got[0])
	}
}

func TestWideAndStraddlingRanges(t *testing.T) {
	x := New(8)
	x.Insert(2, 0, 3*4096, true)      // four blocks: wide
	x.Insert(5, 1<<30, 1<<30+7, true) // one block
	x.Insert(6, 4095, 4096, false)    // straddles two blocks
	x.Insert(7, 100, 50, false)       // inverted
	if got := x.Query(2*4096, 2*4096+7, false); got[0] != 1<<2 {
		t.Errorf("query inside the wide range = %b, want item 2", got[0])
	}
	if got := x.Query(0, 1<<31, false); got[0] != 1<<2|1<<5|1<<6|1<<7 {
		t.Errorf("wide query = %b, want every item", got[0])
	}
	if got := x.Query(4096, 4096, false); got[0] != 1<<2|1<<6 {
		t.Errorf("query of block 1's first byte = %b, want items 2 and 6", got[0])
	}
	if got := x.Query(4096, 4096, true); got[0] != 1<<2 {
		t.Errorf("marked-only query = %b, want item 2", got[0])
	}
	// The overlap test passes an inverted item for a query that starts at
	// or below its end and ends at or above its start.
	if got := x.Query(40, 200, false); got[0] != 1<<2|1<<7 {
		t.Errorf("query over the inverted item = %b, want items 2 and 7", got[0])
	}
	if got := x.Query(9, 8, false); got[0] != 1<<2|1<<5|1<<6|1<<7 {
		t.Errorf("inverted query = %b, want every live item", got[0])
	}
	x.Remove(2)
	x.Remove(2) // removing an absent item does nothing
	if got := x.Query(2*4096, 2*4096+7, false); got[0] != 0 {
		t.Errorf("query after removing the wide item = %b, want none", got[0])
	}
}

func TestNext(t *testing.T) {
	set := []uint64{1<<3 | 1<<63, 0, 1 << 5}
	var got []int
	for i := Next(set, 0); i >= 0; i = Next(set, i+1) {
		got = append(got, i)
	}
	if want := []int{3, 63, 133}; !slices.Equal(got, want) {
		t.Fatalf("Next walk = %v, want %v", got, want)
	}
	if Next(set, 134) != -1 || Next(set, 192) != -1 {
		t.Error("Next past the last item must return -1")
	}
}

func TestIndexDoesNotAllocate(t *testing.T) {
	x := New(128)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 128; i++ {
			x.Insert(i, uint64(i)<<10, uint64(i)<<10+511, i&1 == 0)
		}
		cand := x.Query(5<<10, 9<<10, true)
		for i := Next(cand, 0); i >= 0; i = Next(cand, i+1) {
			x.Remove(i)
		}
		x.Reset()
	})
	if allocs != 0 {
		t.Errorf("index operations allocated %.0f times, want 0", allocs)
	}
}
