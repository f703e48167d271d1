package refsim

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"oovec/internal/metrics"
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

// TestRunCheckpointedMatchesRun asserts the checkpointable run path with no
// cancellation is observationally identical to Run.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	tr := checkpointTestTrace(t, "hydro2d", 3000)
	for _, cfg := range []Config{DefaultConfig(), {MemLatency: 10}, {MemLatency: 100, ScalarMemLatency: 3}} {
		want := Run(tr, cfg)
		got, ck, err := NewMachine(cfg).RunCheckpointed(tr, RunOpts{Ctx: context.Background()})
		if err != nil || ck != nil {
			t.Fatalf("unexpected (ck=%v, err=%v)", ck != nil, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lat %d: RunCheckpointed stats differ from Run\ngot:  %+v\nwant: %+v",
				cfg.MemLatency, got, want)
		}
	}
}

// TestCheckpointResumeDeterminism cancels a run repeatedly, round-trips each
// checkpoint through gob, resumes on a brand-new machine, and asserts the
// final measurements are identical to an uninterrupted run.
func TestCheckpointResumeDeterminism(t *testing.T) {
	tr := checkpointTestTrace(t, "bdna", 4000)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const every = 700

	for _, cfg := range []Config{DefaultConfig(), {MemLatency: 10}} {
		want := Run(tr, cfg)

		var ck *Checkpoint
		var got *metrics.RunStats
		segments := 0
		for {
			mm := NewMachine(cfg)
			res, stop, err := mm.RunCheckpointed(tr, RunOpts{
				Ctx: canceled, CheckEvery: every, Resume: ck,
			})
			if stop == nil {
				if err != nil {
					t.Fatalf("completed segment returned error %v", err)
				}
				got = res
				break
			}
			if err == nil {
				t.Fatalf("canceled segment returned nil error")
			}
			b, err := stop.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			ck, err = DecodeCheckpoint(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			segments++
			if segments > tr.Len()/every+2 {
				t.Fatalf("too many segments (%d), resume not progressing", segments)
			}
		}
		if segments < 2 {
			t.Fatalf("only %d segments, test exercised no resume", segments)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lat %d: resumed stats differ from uninterrupted run\ngot:  %+v\nwant: %+v",
				cfg.MemLatency, got, want)
		}
	}
}

// TestPeriodicCheckpointResume collects periodic checkpoints from an
// uninterrupted run and resumes from each on a fresh machine.
func TestPeriodicCheckpointResume(t *testing.T) {
	tr := checkpointTestTrace(t, "trfd", 3000)
	cfg := DefaultConfig()
	want := Run(tr, cfg)

	var cks []*Checkpoint
	res, _, err := NewMachine(cfg).RunCheckpointed(tr, RunOpts{
		CheckpointEvery: 800,
		OnCheckpoint:    func(ck *Checkpoint) { cks = append(cks, ck) },
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
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
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resume from instruction %d: stats differ from uninterrupted run", ck.NextInsn)
		}
	}
}

// TestDecodeCheckpointRejectsOtherLayout checks that a blob of another
// layout — layout 0, every blob written before the number existed, holds
// the units' full booking history that layout 1 folds into States — is an
// error, so a job resuming from it restarts instead of counting that
// history twice.
func TestDecodeCheckpointRejectsOtherLayout(t *testing.T) {
	tr := checkpointTestTrace(t, "trfd", 2000)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, ck, _ := NewMachine(DefaultConfig()).RunCheckpointed(tr, RunOpts{Ctx: canceled, CheckEvery: 500})
	for _, layout := range []int{0, checkpointLayout + 1} {
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

// TestGoldenCheckpointResumes resumes a checkpoint written by an earlier
// build of this layout: instruction 500 of a 1,000-instruction trfd trace.
// The resumed run must end byte-identical to an uninterrupted one, so a
// build that changes the checkpoint's state types still resumes the jobs an
// older one parked. A change that alters what the blob means must bump
// checkpointLayout (this test then fails to decode it) and re-pin the blob
// deliberately: take it with RunCheckpointed at CheckpointEvery 500 and
// write its Encode.
func TestGoldenCheckpointResumes(t *testing.T) {
	b, err := os.ReadFile("testdata/trfd-1000-at-500.ckpt")
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
	got, _, err := NewMachine(DefaultConfig()).RunCheckpointed(tr, RunOpts{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	want := Run(tr, DefaultConfig())
	gotB, _ := got.AppendBinary(nil)
	wantB, _ := want.AppendBinary(nil)
	if !bytes.Equal(gotB, wantB) {
		t.Errorf("resumed golden checkpoint differs from an uninterrupted run\ngot:  %+v\nwant: %+v", got, want)
	}
}
