package ooosim

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"reflect"
	"strings"
	"testing"

	"oovec/internal/isa"
	"oovec/internal/refsim"
	"oovec/internal/rename"
	"oovec/internal/rob"
	"oovec/internal/tgen"
	"oovec/internal/trace"
)

func checkpointTestTrace(t *testing.T, name string, insns int) *trace.Trace {
	t.Helper()
	p, ok := tgen.PresetByName(name)
	if !ok {
		t.Fatalf("no preset %q", name)
	}
	p.Insns = insns
	return tgen.Generate(p)
}

func checkpointConfigs() map[string]Config {
	late := DefaultConfig()
	late.Commit = rob.PolicyLate
	elim := DefaultConfig()
	elim.LoadElim = ElimSLEVLE
	return map[string]Config{
		"default": DefaultConfig(),
		"late":    late,
		"elim":    elim,
	}
}

// TestRunCheckpointedMatchesRun asserts that the checkpointable run path
// with no cancellation and no resume is observationally identical to Run.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	tr := checkpointTestTrace(t, "hydro2d", 3000)
	for name, cfg := range checkpointConfigs() {
		want := Run(tr, cfg).Stats
		got, ck, err := NewMachine(cfg).RunCheckpointed(tr, RunOpts{Ctx: context.Background()})
		if err != nil || ck != nil {
			t.Fatalf("%s: unexpected (ck=%v, err=%v)", name, ck != nil, err)
		}
		if !reflect.DeepEqual(got.Stats, want) {
			t.Errorf("%s: RunCheckpointed stats differ from Run\ngot:  %+v\nwant: %+v",
				name, got.Stats, want)
		}
	}
}

// TestCheckpointResumeDeterminism cancels a run every few hundred
// instructions, serialises the checkpoint through gob, restores it into a
// brand-new machine and continues — repeatedly, until the trace finishes —
// and asserts the final measurements are identical to an uninterrupted run.
// This is the correctness contract the kill-and-resume server flow depends
// on: a checkpoint captures ALL deterministic machine state.
func TestCheckpointResumeDeterminism(t *testing.T) {
	tr := checkpointTestTrace(t, "bdna", 4000)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const every = 700

	for name, cfg := range checkpointConfigs() {
		want := Run(tr, cfg)

		var ck *Checkpoint
		var got *Result
		segments := 0
		for {
			// A fresh machine per segment proves the checkpoint carries the
			// state, not the machine instance.
			mm := NewMachine(cfg)
			var err error
			var stop *Checkpoint
			got, stop, err = mm.RunCheckpointed(tr, RunOpts{
				Ctx: canceled, CheckEvery: every, Resume: ck,
			})
			if stop == nil {
				if err != nil {
					t.Fatalf("%s: completed segment returned error %v", name, err)
				}
				break
			}
			if err == nil {
				t.Fatalf("%s: canceled segment returned nil error", name)
			}
			if stop.NextInsn <= segments*every {
				t.Fatalf("%s: segment %d made no progress (stopped at %d)",
					name, segments, stop.NextInsn)
			}
			// Round-trip through the wire format, as the store does.
			b, err := stop.Encode()
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			ck, err = DecodeCheckpoint(b)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			segments++
			if segments > tr.Len()/every+2 {
				t.Fatalf("%s: too many segments (%d), resume not progressing", name, segments)
			}
		}
		if segments < 2 {
			t.Fatalf("%s: only %d segments, test exercised no resume", name, segments)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s: resumed stats differ from uninterrupted run\ngot:  %+v\nwant: %+v",
				name, got.Stats, want.Stats)
		}
	}
}

// TestPeriodicCheckpointResume runs uninterrupted while collecting periodic
// checkpoints, then resumes from each one on a fresh machine and asserts
// every resumed result matches — the crash-recovery path, where the last
// periodic checkpoint (not a cancellation checkpoint) is all that survives.
func TestPeriodicCheckpointResume(t *testing.T) {
	tr := checkpointTestTrace(t, "trfd", 3000)
	cfg := DefaultConfig()
	cfg.LoadElim = ElimSLEVLE
	want := Run(tr, cfg).Stats

	var cks []*Checkpoint
	res, _, err := NewMachine(cfg).RunCheckpointed(tr, RunOpts{
		CheckpointEvery: 800,
		OnCheckpoint: func(ck *Checkpoint) {
			b, err := ck.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := DecodeCheckpoint(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			cks = append(cks, dec)
		},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !reflect.DeepEqual(res.Stats, want) {
		t.Fatalf("checkpointing run differs from plain run")
	}
	if len(cks) < 3 {
		t.Fatalf("expected >= 3 periodic checkpoints, got %d", len(cks))
	}
	for _, ck := range cks {
		got, _, err := NewMachine(cfg).RunCheckpointed(tr, RunOpts{Resume: ck})
		if err != nil {
			t.Fatalf("resume from %d: %v", ck.NextInsn, err)
		}
		if !reflect.DeepEqual(got.Stats, want) {
			t.Errorf("resume from instruction %d: stats differ from uninterrupted run", ck.NextInsn)
		}
	}
}

// TestCheckpointConfigMismatch asserts restore fails loudly rather than
// silently corrupting a run when the machine shape does not match.
func TestCheckpointConfigMismatch(t *testing.T) {
	tr := checkpointTestTrace(t, "trfd", 2000)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, ck, err := NewMachine(DefaultConfig()).RunCheckpointed(tr, RunOpts{Ctx: canceled, CheckEvery: 500})
	if ck == nil || err == nil {
		t.Fatalf("expected a cancellation checkpoint")
	}
	big := DefaultConfig()
	big.PhysVRegs = 32
	if _, _, err := NewMachine(big).RunCheckpointed(tr, RunOpts{Resume: ck}); err == nil {
		t.Errorf("resume under a different register-file size succeeded; want error")
	}
	short := &trace.Trace{Name: tr.Name, Suite: tr.Suite, Insns: tr.Insns[:1000]}
	if _, _, err := NewMachine(DefaultConfig()).RunCheckpointed(short, RunOpts{Resume: ck}); err == nil {
		t.Errorf("resume on a different trace succeeded; want error")
	}
}

// TestResumeRejectsMalformedCheckpoint mutates a real checkpoint (swm256,
// 4,000 instructions, cut at 1,000) into states no run produces. Each must
// fail to resume with an error naming what is wrong, never resume into a
// different result or panic.
func TestResumeRejectsMalformedCheckpoint(t *testing.T) {
	tr := checkpointTestTrace(t, "swm256", 4000)
	cfg := DefaultConfig()
	var good *Checkpoint
	_, _, err := NewMachine(cfg).RunCheckpointed(tr, RunOpts{
		CheckpointEvery: 1000,
		OnCheckpoint: func(ck *Checkpoint) {
			if ck.NextInsn == 1000 {
				good = ck
			}
		},
	})
	if err != nil || good == nil {
		t.Fatalf("no checkpoint at instruction 1000 (err %v)", err)
	}
	if len(good.MSched.Pend) == 0 || len(good.FU1.IV) == 0 {
		t.Fatalf("checkpoint holds %d stores and %d FU1 bookings; the cases below need both", len(good.MSched.Pend), len(good.FU1.IV))
	}
	cases := []struct {
		name string
		edit func(*Checkpoint)
		want string
	}{
		{"V register neither mapped nor free", func(ck *Checkpoint) {
			ck.Tables[isa.RegV].Free = ck.Tables[isa.RegV].Free[1:]
		}, "unreferenced registers"},
		{"breakdown not summing to its cycle", func(ck *Checkpoint) { ck.States.States[0]++ }, "state breakdown"},
		{"breakdown past a held booking", func(ck *Checkpoint) {
			end := ck.FU1.IV[0].End
			ck.States.States[0] += end - ck.States.At
			ck.States.At = end
		}, "held interval"},
		{"first held store already placed", func(ck *Checkpoint) { ck.MSched.Pend[0].Placed = true }, "no longer pending"},
		{"held stores renumbered", func(ck *Checkpoint) { ck.MSched.Base += 5 }, "outside the held stores"},
		{"held store ready before its Dependence stage", func(ck *Checkpoint) {
			ck.MSched.Pend[0].Dep = ck.MSched.Pend[0].Ready + 1
		}, "Dependence stage"},
		// The M queue walks the trace's memory-dependence plan at entry N:
		// another count would walk the wrong accesses' conflicts, and one
		// past the plan would index out of it.
		{"M queue entries not the memory instructions before the position", func(ck *Checkpoint) { ck.MQ.N++ }, "memory instructions"},
		{"position moved past M queue entries", func(ck *Checkpoint) { ck.NextInsn += 100 }, "memory instructions"},
		{"M queue past the plan", func(ck *Checkpoint) { ck.MQ.N += 1 << 20 }, "memory instructions"},
	}
	// The run above left its plan in tr's memo: resumes on tr follow it;
	// those on a new trace over the same instructions go without one.
	for _, to := range []*trace.Trace{tr, unplanned(tr)} {
		for _, c := range cases {
			ck := cloneCheckpoint(t, good)
			c.edit(ck)
			_, _, err := NewMachine(cfg).RunCheckpointed(to, RunOpts{Resume: ck})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (plan %v): resume error %v, want one mentioning %q", c.name, to == tr, err, c.want)
			}
		}
		if _, _, err := NewMachine(cfg).RunCheckpointed(to, RunOpts{Resume: cloneCheckpoint(t, good)}); err != nil {
			t.Errorf("unmodified checkpoint (plan %v): %v", to == tr, err)
		}
	}
}

// cloneCheckpoint returns a deep copy of ck through its wire format.
func cloneCheckpoint(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	b, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDecodeCheckpointRejectsOtherLayout checks that a blob of another
// layout — a stale one written before the layout number existed decodes
// with Layout 0, layout 1 carries the ROB state layout 2 replaced, layout 2
// the memory scheduler's disambiguation ring layout 3 moved into the M
// queue, and layout 3 the full booking history and every store of the run
// that layout 4 folds and retires — is an error, so a job resuming from it
// restarts instead of resuming with the wrong state.
func TestDecodeCheckpointRejectsOtherLayout(t *testing.T) {
	tr := checkpointTestTrace(t, "trfd", 2000)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, ck, _ := NewMachine(DefaultConfig()).RunCheckpointed(tr, RunOpts{Ctx: canceled, CheckEvery: 500})
	for _, layout := range []int{0, 1, 2, 3, checkpointLayout + 1} {
		stale := *ck
		stale.Layout = layout
		b, err := stale.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCheckpoint(b); err == nil || !strings.Contains(err.Error(), "layout") {
			t.Errorf("layout %d: DecodeCheckpoint error = %v, want a layout error", layout, err)
		}
	}
	b, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(b); err != nil {
		t.Errorf("current layout: %v", err)
	}
}

// TestQueueStateIndependentOfTraceLength guards the footprint of the whole
// checkpoint of both machines: its gob encoding has the same size at instruction 10,000 and
// at 80,000. gob writes integers in variable width, so both states are first
// widened — every integer set to its widest encoding — and the size then
// measures the state's shape, not how large its cycle numbers have grown.
//
// The rename free lists, the held bookings of the FUs and the bus and the
// store buffer's held stores vary with what is in flight at the cut. A free
// list is padded to its register count; the other three are measured apart:
// each holds at most maxHeld entries at both cuts, where a full booking
// history holds thousands at 10,000 instructions.
func TestQueueStateIndependentOfTraceLength(t *testing.T) {
	const maxHeld = 256
	q128 := DefaultConfig()
	q128.QueueSlots = 128
	q128.LoadElim = ElimSLEVLE
	elim := DefaultConfig()
	elim.LoadElim = ElimSLEVLE
	configs := map[string]Config{"default": DefaultConfig(), "q128+sle+vle": q128, "sle+vle": elim}
	for _, bench := range []string{"hydro2d", "swm256"} {
		tr := checkpointTestTrace(t, bench, 81_000)
		for name, cfg := range configs {
			cks := map[int]*Checkpoint{}
			_, _, err := NewMachine(cfg).RunCheckpointed(tr, RunOpts{
				CheckpointEvery: 10_000,
				OnCheckpoint:    func(ck *Checkpoint) { cks[ck.NextInsn] = ck },
			})
			if err != nil {
				t.Fatal(err)
			}
			var sizes [2]int
			for i, ck := range []*Checkpoint{cks[10_000], cks[80_000]} {
				held := map[string]int{"FU1": len(ck.FU1.IV), "FU2": len(ck.FU2.IV),
					"bus": len(ck.MSched.Bus.IV), "stores": len(ck.MSched.Pend)}
				for list, n := range held {
					if n > maxHeld {
						t.Errorf("%s/%s at %d: %d held %s entries, want at most %d", bench, name, ck.NextInsn, n, list, maxHeld)
					}
				}
				ck.FU1.IV, ck.FU2.IV, ck.MSched.Bus.IV, ck.MSched.Pend = nil, nil, nil, nil
				// A free list holds at most one entry per register: pad it
				// to that, as the ring the table keeps it in is.
				for c := range ck.Tables {
					ck.Tables[c].Free = make([]rename.FreeEntry, len(ck.Tables[c].Refcnt))
				}
				widen(reflect.ValueOf(ck).Elem())
				sizes[i] = gobSize(t, ck)
			}
			if sizes[0] != sizes[1] {
				t.Errorf("%s/%s: checkpoint without held lists is %d bytes at 10k instructions, %d at 80k", bench, name, sizes[0], sizes[1])
			}
		}

		// The reference machine holds only its units' bookings besides
		// fixed-size state.
		cks := map[int]*refsim.Checkpoint{}
		_, _, err := refsim.NewMachine(refsim.DefaultConfig()).RunCheckpointed(tr, refsim.RunOpts{
			CheckpointEvery: 10_000,
			OnCheckpoint:    func(ck *refsim.Checkpoint) { cks[ck.NextInsn] = ck },
		})
		if err != nil {
			t.Fatal(err)
		}
		var sizes [2]int
		for i, ck := range []*refsim.Checkpoint{cks[10_000], cks[80_000]} {
			for list, n := range map[string]int{"FU1": len(ck.FU1.IV), "FU2": len(ck.FU2.IV), "bus": len(ck.Bus.IV)} {
				if n > maxHeld {
					t.Errorf("%s/REF at %d: %d held %s intervals, want at most %d", bench, ck.NextInsn, n, list, maxHeld)
				}
			}
			ck.FU1.IV, ck.FU2.IV, ck.Bus.IV = nil, nil, nil
			widen(reflect.ValueOf(ck).Elem())
			sizes[i] = gobSize(t, ck)
		}
		if sizes[0] != sizes[1] {
			t.Errorf("%s/REF: checkpoint without held lists is %d bytes at 10k instructions, %d at 80k", bench, sizes[0], sizes[1])
		}
	}
}

// widen sets every integer and boolean in v to the value gob encodes in
// the most bytes. Maps must be empty: their keys cannot all be widened.
func widen(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			widen(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			widen(v.Index(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-1 << (v.Type().Bits() - 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1<<v.Type().Bits() - 1)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Map:
		if v.Len() > 0 {
			panic("widen: non-empty map " + v.Type().String())
		}
	default:
		panic("widen: unhandled kind " + v.Kind().String())
	}
}

func gobSize(t *testing.T, v any) int {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Len()
}

// TestGoldenCheckpointResumes resumes a checkpoint written by an earlier
// build of this layout: instruction 500 of a 1,000-instruction trfd trace
// under SLE+VLE. The resumed run must end byte-identical to an uninterrupted
// one. Fields a later build drops are ignored by gob, so this pins that such
// a build still resumes the jobs an older one parked. A state change that
// alters what the blob means must bump checkpointLayout (this test then
// fails to decode it) and re-pin the blob deliberately: take it with
// RunCheckpointed at CheckpointEvery 500 and write its Encode.
func TestGoldenCheckpointResumes(t *testing.T) {
	b, err := os.ReadFile("testdata/trfd-1000-at-500-sle-vle.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextInsn != 500 {
		t.Fatalf("golden checkpoint resumes at %d, want 500", ck.NextInsn)
	}
	tr := checkpointTestTrace(t, "trfd", 1000)
	cfg := DefaultConfig()
	cfg.LoadElim = ElimSLEVLE
	got, _, err := NewMachine(cfg).RunCheckpointed(tr, RunOpts{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	want := Run(tr, cfg).Stats
	gotB, _ := got.Stats.AppendBinary(nil)
	wantB, _ := want.AppendBinary(nil)
	if !bytes.Equal(gotB, wantB) {
		t.Errorf("resumed golden checkpoint differs from an uninterrupted run\ngot:  %+v\nwant: %+v", got.Stats, want)
	}
}
