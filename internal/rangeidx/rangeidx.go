// Package rangeidx answers the simulators' address-overlap queries without
// scanning every live byte range.
//
// Two structures ask, for every memory instruction, which of a bounded set
// of byte ranges may overlap a new one: an M queue without a
// memory-dependence plan (its last QueueSlots accesses, §2.2; a trace's
// first OOOVA run records the plan from these answers), and the §6.1
// memory tags (one range per physical register). Few ranges ever overlap, so a scan spends almost all its time
// rejecting.
//
// An Index maps each item — a ring slot or a physical register, numbered
// 0..n-1 — to the 4 KiB blocks its range touches, hashed into a fixed table
// of bucket bitsets. An item whose range spans more than two blocks goes into
// a wide set instead. A query ORs its one or two buckets with the wide set; a
// query that itself spans more than two blocks takes every live item. Every
// range that overlaps the query shares a block with it, so these candidates
// are a superset of the overlapping items; the index then applies the exact
// overlap test to each, so a hash collision, or a range that shares a block
// without overlapping, costs time, never a different answer. Items may carry
// a mark (a store, for the disambiguation windows), and a query can keep
// only marked items.
//
// The index is derived state: its users rebuild it from their own ranges on
// restore and never checkpoint it.
package rangeidx

import "math/bits"

// blockShift is log2 of the block size, 4 KiB.
const blockShift = 12

// span is an indexed byte range, [start, end].
type span struct{ start, end uint64 }

// Index is a block-hashed overlap index over items 0..n-1, each holding at
// most one byte range. It does not allocate after New.
type Index struct {
	shift uint // 64 - log2(bucket count): the hash keeps the top bits
	words int  // bitset words per set

	// sets holds the live, marked, wide and result sets, then the
	// buckets: set k is sets[k*words : (k+1)*words].
	sets  []uint64
	spans []span // each live item's range
}

const (
	liveSet = iota
	markSet
	wideSet
	resultSet
	firstBucket
)

// New returns an empty index for items 0..n-1 with about four buckets per
// item, so a bucket rarely holds an item whose range is elsewhere.
func New(n int) *Index {
	n = max(n, 1)
	log := bits.Len(uint(4*n - 1))
	words := (n + 63) / 64
	return &Index{
		shift: uint(64 - log),
		words: words,
		sets:  make([]uint64, (firstBucket+1<<log)*words),
		spans: make([]span, n),
	}
}

func (x *Index) set(k int) []uint64 { return x.sets[k*x.words : (k+1)*x.words] }

// bucket returns the set of the bucket block hashes to.
func (x *Index) bucket(block uint64) []uint64 {
	return x.set(firstBucket + int((block*0x9e3779b97f4a7c15)>>x.shift))
}

// blocks returns the first and last block of [start, end] and whether the
// range is wide: more than two blocks, or inverted (start > end), which
// the exact test decides the way a scan would.
func blocks(start, end uint64) (lo, hi uint64, wide bool) {
	lo, hi = start>>blockShift, end>>blockShift
	return lo, hi, start > end || hi-lo > 1
}

// Insert indexes item over the byte range [start, end], replacing any range
// it held.
//
//ovlint:hotpath called once per memory access or tag write
func (x *Index) Insert(item int, start, end uint64, marked bool) {
	x.Remove(item)
	w, bit := item>>6, uint64(1)<<(item&63)
	x.set(liveSet)[w] |= bit
	if marked {
		x.set(markSet)[w] |= bit
	}
	x.spans[item] = span{start, end}
	if lo, hi, wide := blocks(start, end); wide {
		x.set(wideSet)[w] |= bit
	} else {
		x.bucket(lo)[w] |= bit
		x.bucket(hi)[w] |= bit
	}
}

// Remove drops item from the index; removing an absent item does nothing.
//
//ovlint:hotpath called once per memory access or tag invalidation
func (x *Index) Remove(item int) {
	w, bit := item>>6, uint64(1)<<(item&63)
	if x.set(liveSet)[w]&bit == 0 {
		return
	}
	x.set(liveSet)[w] &^= bit
	x.set(markSet)[w] &^= bit
	x.set(wideSet)[w] &^= bit
	sp := x.spans[item]
	if lo, hi, wide := blocks(sp.start, sp.end); !wide {
		x.bucket(lo)[w] &^= bit
		x.bucket(hi)[w] &^= bit
	}
}

// Query returns, as a bitset over the items, the live items whose ranges
// overlap [start, end] — by the test start' <= end && start <= end' —
// limited to marked items if onlyMarked. An inverted query (start > end)
// returns every live item (marked, if onlyMarked) and leaves the test to
// the caller. The slice belongs to the index and is valid until the next
// Query; Insert and Remove do not change it, so a caller may update the
// index while it walks the result.
//
//ovlint:hotpath called once per memory access or tag lookup
func (x *Index) Query(start, end uint64, onlyMarked bool) []uint64 {
	res, keep := x.set(resultSet), x.set(liveSet)
	if onlyMarked {
		keep = x.set(markSet)
	}
	if lo, hi, wide := blocks(start, end); wide {
		copy(res, keep)
	} else {
		// Buckets hold only live items, so keep matters only for marks.
		a, b, wd := x.bucket(lo), x.bucket(hi), x.set(wideSet)
		for i := range res {
			res[i] = (a[i] | b[i] | wd[i]) & keep[i]
		}
	}
	if start > end {
		return res
	}
	// The buckets give a superset: ranges that share a block without
	// overlapping, and hash collisions. The exact test drops them; most
	// candidates fail it, so it is branch-free: a borrow out of end -
	// start' or end' - start is a miss.
	for w, word := range res {
		for rest := word; rest != 0; rest &= rest - 1 {
			b := bits.TrailingZeros64(rest)
			sp := &x.spans[w<<6|b]
			_, after := bits.Sub64(end, sp.start, 0)
			_, before := bits.Sub64(sp.end, start, 0)
			word &^= (after | before) << b
		}
		res[w] = word
	}
	return res
}

// Reset empties the index, keeping its storage.
func (x *Index) Reset() { clear(x.sets) }

// Next returns the lowest item of set at or above from, or -1 if there is
// none. Walking a Query result:
//
//	for i := rangeidx.Next(res, 0); i >= 0; i = rangeidx.Next(res, i+1) { ... }
func Next(set []uint64, from int) int {
	w := from >> 6
	if w >= len(set) {
		return -1
	}
	word := set[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		if w++; w == len(set) {
			return -1
		}
		word = set[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}
