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
	e := &l.entries[entry]
	e.start, e.end, e.busEnd, e.pend = 1, 0, 0, -1
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
func decodeMemOps(ops []byte) ([]memOp, []Access) {
	var decoded []memOp
	var accs []Access
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
			accs = append(accs, Access{Start: start, End: end, Store: m.isStore})
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
// after each. It runs them twice: on a queue without a plan, with probes
// of arbitrary accesses; then on that queue and on one following the plan
// built from the recorded accesses, side by side, with each probe asking
// about the next recorded access, the only one a plan answers for.
func checkMemQueueAgainstReference(t *testing.T, slots int, ops []byte) {
	t.Helper()
	decoded, accs := decodeMemOps(ops)
	runMemQueueCheck(t, slots, decoded, accs, nil)
	runMemQueueCheck(t, slots, decoded, accs, buildMemDeps(len(accs), slices.Values(accs), 1<<30))
}

// runMemQueueCheck is one run of checkMemQueueAgainstReference: on a queue
// without a plan if plan is nil, else on that queue and one following
// plan.
func runMemQueueCheck(t *testing.T, slots int, decoded []memOp, accs []Access, plan *MemDeps) {
	t.Helper()
	plans := []*MemDeps{nil}
	if plan != nil {
		plans = append(plans, plan)
	}
	qs := make([]*MemQueue, len(plans))
	bufs := make([]*testBuffer, len(plans))
	for j, d := range plans {
		qs[j] = NewMemQueue(slots)
		qs[j].Follow(d)
		bufs[j] = &testBuffer{q: qs[j], bus: sched.NewGap()}
		qs[j].Attach(bufs[j])
	}
	ref := &linearQueue{scanWin: min(slots, maxScan)}
	refBuf := &testBuffer{q: ref, bus: sched.NewGap()}
	ref.sb = refBuf

	// check runs one Dependence check on every queue and the reference.
	check := func(k int, what string, start, end uint64, isStore bool) int64 {
		want := ref.ConflictConstraint(start, end, isStore)
		for j, q := range qs {
			if got := q.ConflictConstraint(start, end, isStore); got != want {
				t.Fatalf("op %d, queue %d of %d: %s = %d, reference %d", k, j, len(qs), what, got, want)
			}
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
			for j, q := range qs {
				if busStart := bufs[j].placeNow(ready, m.occ); busStart != want {
					t.Fatalf("op %d, queue %d: bus start %d, reference %d", k, j, busStart, want)
				}
				q.Record(m.start, m.end, m.isStore, want, want+m.occ)
			}
			ref.record(m.start, m.end, m.isStore, want+m.occ, -1)
		case 1, 2: // a deferred store; 2 is an elidable spill
			st := bufferedStore{ready: ready, occ: m.occ, elidable: m.op == 2}
			for j, q := range qs {
				st.entry = q.RecordPending(m.start, m.end, len(bufs[j].pend), ready)
				bufs[j].pend = append(bufs[j].pend, st)
			}
			st.entry = ref.record(m.start, m.end, true, 0, len(refBuf.pend))
			refBuf.pend = append(refBuf.pend, st)
		case 4:
			i := int(m.a) % (len(refBuf.pend) + 1)
			for _, b := range bufs {
				b.cancel(i)
			}
			refBuf.cancel(i)
		case 5: // an eliminated load
			for _, q := range qs {
				q.Record(m.start, m.end, false, ready, ready)
			}
			ref.record(m.start, m.end, false, ready, -1)
		case 6, 7:
			start, end, isStore := m.start, m.end, m.op == 7
			if plan != nil {
				if len(ref.entries) == len(accs) {
					break // no access left to probe
				}
				next := accs[len(ref.entries)]
				start, end, isStore = next.Start, next.End, next.Store
			}
			check(k, "conflict probe", start, end, isStore)
		case 8: // rare, so stores stay pending past 256 entries first
			if m.a < 8 {
				for _, b := range bufs {
					b.finish()
				}
				refBuf.finish()
			}
		case 9:
			for j, q := range qs {
				st := q.Snapshot()
				qs[j] = NewMemQueue(slots)
				qs[j].Follow(plans[j])
				moved := &testBuffer{q: qs[j], bus: sched.NewGap(), pend: slices.Clone(bufs[j].pend)}
				if err := moved.bus.Restore(bufs[j].bus.Snapshot()); err != nil {
					t.Fatal(err)
				}
				bufs[j] = moved
				qs[j].Attach(moved)
				if err := qs[j].Restore(st); err != nil {
					t.Fatalf("op %d, queue %d: restore: %v", k, j, err)
				}
			}
		}
		for j, q := range qs {
			if !slices.Equal(bufs[j].bus.Intervals(), refBuf.bus.Intervals()) {
				t.Fatalf("op %d, queue %d: bus intervals diverge:\n got %v\nwant %v", k, j, bufs[j].bus.Intervals(), refBuf.bus.Intervals())
			}
			if q.n != len(ref.entries) {
				t.Fatalf("op %d, queue %d: %d entries, reference %d", k, j, q.n, len(ref.entries))
			}
			for i := max(q.n-maxScan, 0); i < q.n; i++ {
				if q.entries[i%maxScan] != ref.entries[i] {
					t.Fatalf("op %d, queue %d: ring entry %d = %+v, reference %+v", k, j, i, q.entries[i%maxScan], ref.entries[i])
				}
			}
		}
	}
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
// attached against the linear reference on fuzzed operation sequences,
// without a plan and following the plan built from each sequence.
func FuzzMemQueue(f *testing.F) {
	f.Add(uint8(3), []byte{1, 10, 5, 3, 0, 12, 5, 9, 2, 40, 7, 1, 4, 0, 0, 0, 6, 10, 5, 3, 7, 12, 1, 8})
	f.Add(uint8(0), []byte{2, 1, 2, 3, 2, 1, 2, 9, 1, 3, 4, 200, 8, 0, 0, 0, 0, 1, 2, 3, 4, 1, 0, 0, 5, 9, 9, 9})
	f.Add(uint8(6), []byte{1, 0, 230, 16, 3, 0, 250, 2, 1, 255, 10, 40, 8, 1, 1, 1, 0, 0, 230, 60, 4, 2, 0, 0})
	f.Fuzz(func(t *testing.T, slots uint8, ops []byte) {
		checkMemQueueAgainstReference(t, memQueueSlots[int(slots)%len(memQueueSlots)], ops)
	})
}
