package iq

import (
	"math/rand"
	"slices"
	"testing"

	"oovec/internal/sched"
)

// ring is what a store buffer reports placed and elided stores to: the
// MemQueue under test or its linear reference.
type ring interface {
	SetBusEnd(entry int, busEnd int64)
	Elide(entry int)
}

// bufferedStore is one store held by testBuffer.
type bufferedStore struct {
	ready, occ                 int64
	entry                      int
	placed, elidable, canceled bool
}

// testBuffer is a store buffer with the OOOVA scheduler's placement rule,
// written as a scan: flush places the oldest-ready pending store first,
// ties by age, and leaves elidable stores for PlaceStore and cancel.
type testBuffer struct {
	q    ring
	bus  *sched.Gap
	pend []bufferedStore
}

func (b *testBuffer) PlaceStore(i int) {
	if b.pend[i].placed {
		return
	}
	b.flush(b.pend[i].ready)
	b.place(i)
}

func (b *testBuffer) flush(threshold int64) {
	for {
		best := -1
		for i, p := range b.pend {
			if p.placed || p.canceled || p.elidable || p.ready > threshold {
				continue
			}
			if best < 0 || p.ready < b.pend[best].ready {
				best = i
			}
		}
		if best < 0 {
			return
		}
		b.place(best)
	}
}

func (b *testBuffer) place(i int) {
	p := &b.pend[i]
	if p.placed || p.canceled {
		return
	}
	start := b.bus.Allocate(p.ready, p.occ)
	p.placed = true
	b.q.SetBusEnd(p.entry, start+p.occ)
}

// placeNow books an access that issues at once, after every pending store
// ready no later.
func (b *testBuffer) placeNow(ready, occ int64) int64 {
	b.flush(ready)
	return b.bus.Allocate(ready, occ)
}

// finish places every pending store, elidable ones too, as the end of a
// run does.
func (b *testBuffer) finish() {
	b.flush(1 << 62)
	for i := range b.pend {
		b.place(i)
	}
}

func (b *testBuffer) cancel(i int) {
	if i >= len(b.pend) || b.pend[i].placed || b.pend[i].canceled {
		return
	}
	b.pend[i].canceled = true
	b.q.Elide(b.pend[i].entry)
}

// linearQueue is the reference Dependence check: it keeps every entry ever
// recorded and scans the last scanWin of them, oldest first.
type linearQueue struct {
	entries []memEntry
	scanWin int
	sb      StoreBuffer
}

func (l *linearQueue) ConflictConstraint(start, end uint64, isStore bool) int64 {
	var at int64
	for i := max(len(l.entries)-l.scanWin, 0); i < len(l.entries); i++ {
		e := &l.entries[i]
		if !(isStore || e.isStore) || !(e.start <= end && start <= e.end) {
			continue
		}
		if e.pend >= 0 {
			l.sb.PlaceStore(e.pend)
		}
		at = max(at, e.busEnd)
	}
	return at
}

func (l *linearQueue) record(start, end uint64, isStore bool, busEnd int64, pend int) int {
	l.entries = append(l.entries, memEntry{start: start, end: end, isStore: isStore, busEnd: busEnd, pend: pend})
	return len(l.entries) - 1
}

func (l *linearQueue) SetBusEnd(entry int, busEnd int64) {
	l.entries[entry].busEnd, l.entries[entry].pend = busEnd, -1
}

func (l *linearQueue) Elide(entry int) {
	l.entries[entry].busEnd, l.entries[entry].pend = 0, -1
}

// memQueueSlots are the queue capacities the checks draw from: around the
// default, the OOOVA-128 size and the scan bound.
var memQueueSlots = []int{1, 2, 4, 16, 64, 128, 256, 300}

// memOp is one decoded operation of checkMemQueueAgainstReference.
type memOp struct {
	op, a      byte
	start, end uint64
	isStore    bool
	ready, occ int64
}

// decodeMemOps decodes ops, four bytes an operation, and returns them with
// the accesses they record in order: the memory instructions of the trace
// they model.
func decodeMemOps(ops []byte) ([]memOp, []access) {
	var decoded []memOp
	var accs []access
	var clock int64
	for k := 0; k+4 <= len(ops); k += 4 {
		op, a, b, c := ops[k]%10, ops[k+1], ops[k+2], ops[k+3]
		clock += int64(c % 8)
		// Ranges crowd four 4 KiB blocks; some straddle a block boundary,
		// some span more than two blocks, and a few are inverted.
		start := uint64(a) * 64
		end := start + uint64(b%64)*8
		switch {
		case b >= 248:
			start, end = end+1, start
		case b >= 224:
			end = start + 3*4096
		}
		m := memOp{op: op, a: a, start: start, end: end, isStore: op == 1 || op == 2 || op == 3,
			ready: clock + int64(c/8), occ: 1 + int64(b%32)}
		if op <= 3 || op == 5 {
			accs = append(accs, access{start: start, end: end, store: m.isStore})
		}
		decoded = append(decoded, m)
	}
	return decoded, accs
}

// checkMemQueueAgainstReference decodes ops into the calls the OOOVA makes
// on its M queue and store buffer — loads, late stores and deferred
// stores, each after its Dependence check, elidable stores,
// cancellations, eliminated loads, conflict probes, the end-of-run
// placement of every pending store and snapshot/restore of the queue and
// its buffer into fresh ones — and requires every constraint, the bus
// bookings and the ring's live entries to match the linear reference
// after each. It runs them three times: on a queue never Reset, which
// finds its conflicts through its range index and records nothing, with
// probes of arbitrary accesses; on a Reset queue, which records a plan
// (and is never restored, as a restored queue records none); then on a
// queue following that plan. A queue recording or following a plan takes
// each probe to ask about the next recorded access, the only one a plan
// answers for. The recorded plan must equal the linear scan at the
// queue's window.
func checkMemQueueAgainstReference(t *testing.T, slots int, ops []byte) {
	t.Helper()
	decoded, accs := decodeMemOps(ops)
	defer liftPlanBound()()
	runMemQueueCheck(t, slots, decoded, accs, passIndexed, nil)
	plan := runMemQueueCheck(t, slots, decoded, accs, passRecording, nil)
	win := min(slots, maxScan)
	checkPlan(t, plan, win, linearDeps(accs, win))
	runMemQueueCheck(t, slots, decoded, accs, passFollowing, plan)
}

// The passes of checkMemQueueAgainstReference.
const (
	passIndexed = iota
	passRecording
	passFollowing
)

// runMemQueueCheck is one pass of checkMemQueueAgainstReference: on a
// queue following plan in passFollowing. It returns the plan the queue
// recorded.
func runMemQueueCheck(t *testing.T, slots int, decoded []memOp, accs []access, pass int, plan *MemDeps) *MemDeps {
	t.Helper()
	q := NewMemQueue(slots)
	q.Follow(plan)
	if pass == passRecording {
		q.Reset()
	}
	buf := &testBuffer{q: q, bus: sched.NewGap()}
	q.Attach(buf)
	ref := &linearQueue{scanWin: min(slots, maxScan)}
	refBuf := &testBuffer{q: ref, bus: sched.NewGap()}
	ref.sb = refBuf

	// check runs one Dependence check on the queue and the reference.
	check := func(k int, what string, start, end uint64, isStore bool) int64 {
		want := ref.ConflictConstraint(start, end, isStore)
		if got := q.ConflictConstraint(start, end, isStore); got != want {
			t.Fatalf("pass %d, op %d: %s = %d, reference %d", pass, k, what, got, want)
		}
		return want
	}
	for k, m := range decoded {
		ready := m.ready
		if m.op <= 3 {
			ready = max(ready, check(k, "Dependence check", m.start, m.end, m.isStore))
		}
		switch m.op {
		case 0, 3: // a load, or a store under late commit
			want := refBuf.placeNow(ready, m.occ)
			if busStart := buf.placeNow(ready, m.occ); busStart != want {
				t.Fatalf("pass %d, op %d: bus start %d, reference %d", pass, k, busStart, want)
			}
			q.Record(m.start, m.end, m.isStore, want, want+m.occ)
			ref.record(m.start, m.end, m.isStore, want+m.occ, -1)
		case 1, 2: // a deferred store; 2 is an elidable spill
			st := bufferedStore{ready: ready, occ: m.occ, elidable: m.op == 2}
			st.entry = q.RecordPending(m.start, m.end, len(buf.pend), ready)
			buf.pend = append(buf.pend, st)
			st.entry = ref.record(m.start, m.end, true, 0, len(refBuf.pend))
			refBuf.pend = append(refBuf.pend, st)
		case 4:
			i := int(m.a) % (len(refBuf.pend) + 1)
			buf.cancel(i)
			refBuf.cancel(i)
		case 5: // an eliminated load
			q.Record(m.start, m.end, false, ready, ready)
			ref.record(m.start, m.end, false, ready, -1)
		case 6, 7:
			start, end, isStore := m.start, m.end, m.op == 7
			if pass != passIndexed {
				if len(ref.entries) == len(accs) {
					break // no access left to probe
				}
				next := accs[len(ref.entries)]
				start, end, isStore = next.start, next.end, next.store
			}
			check(k, "conflict probe", start, end, isStore)
		case 8: // rare, so stores stay pending past 256 entries first
			if m.a < 8 {
				buf.finish()
				refBuf.finish()
			}
		case 9:
			if pass == passRecording {
				break
			}
			st := q.Snapshot()
			q = NewMemQueue(slots)
			q.Follow(plan)
			moved := &testBuffer{q: q, bus: sched.NewGap(), pend: slices.Clone(buf.pend)}
			if err := moved.bus.Restore(buf.bus.Snapshot()); err != nil {
				t.Fatal(err)
			}
			buf = moved
			q.Attach(moved)
			if err := q.Restore(st); err != nil {
				t.Fatalf("pass %d, op %d: restore: %v", pass, k, err)
			}
		}
		if !slices.Equal(buf.bus.Intervals(), refBuf.bus.Intervals()) {
			t.Fatalf("pass %d, op %d: bus intervals diverge:\n got %v\nwant %v", pass, k, buf.bus.Intervals(), refBuf.bus.Intervals())
		}
		if q.n != len(ref.entries) {
			t.Fatalf("pass %d, op %d: %d entries, reference %d", pass, k, q.n, len(ref.entries))
		}
		for i := max(q.n-maxScan, 0); i < q.n; i++ {
			if q.entries[i%maxScan] != ref.entries[i] {
				t.Fatalf("pass %d, op %d: ring entry %d = %+v, reference %+v", pass, k, i, q.entries[i%maxScan], ref.entries[i])
			}
		}
	}
	return q.Recorded()
}

// TestMemQueueStoreBufferMatchesLinearReference runs the fuzz check on
// random operation sequences at every capacity.
func TestMemQueueStoreBufferMatchesLinearReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, slots := range memQueueSlots {
		for range 6 {
			ops := make([]byte, 4*(200+r.Intn(1200)))
			r.Read(ops)
			checkMemQueueAgainstReference(t, slots, ops)
		}
	}
}

// FuzzMemQueue checks the M queue's Dependence check with a store buffer
// attached against the linear reference on fuzzed operation sequences:
// through the range index, recording a plan, and following the plan
// recorded from each sequence.
func FuzzMemQueue(f *testing.F) {
	f.Add(uint8(3), []byte{1, 10, 5, 3, 0, 12, 5, 9, 2, 40, 7, 1, 4, 0, 0, 0, 6, 10, 5, 3, 7, 12, 1, 8})
	f.Add(uint8(0), []byte{2, 1, 2, 3, 2, 1, 2, 9, 1, 3, 4, 200, 8, 0, 0, 0, 0, 1, 2, 3, 4, 1, 0, 0, 5, 9, 9, 9})
	f.Add(uint8(6), []byte{1, 0, 230, 16, 3, 0, 250, 2, 1, 255, 10, 40, 8, 1, 1, 1, 0, 0, 230, 60, 4, 2, 0, 0})
	f.Fuzz(func(t *testing.T, slots uint8, ops []byte) {
		checkMemQueueAgainstReference(t, memQueueSlots[int(slots)%len(memQueueSlots)], ops)
	})
}
