package sim_test

import (
	"context"
	"math"
	"testing"

	"oovec/internal/bpred"
	"oovec/internal/iq"
	"oovec/internal/isa"
	"oovec/internal/ooosim"
	"oovec/internal/refsim"
	"oovec/internal/rename"
	"oovec/internal/sched"
	"oovec/internal/tgen"
	"oovec/internal/vregfile"
)

// TestMalformedCheckpointIsAnError resumes both machines from gob-valid but
// malformed checkpoints. Each must be rejected with an error before any
// instruction runs, never panic mid-simulation.
func TestMalformedCheckpointIsAnError(t *testing.T) {
	p, _ := tgen.PresetByName("bdna")
	p.Insns = 3000
	tr := tgen.Generate(p)
	// A pre-canceled run stops at the first abort check, returning a
	// checkpoint of that boundary.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name      string
		next      int // NextInsn override; 0 keeps the checkpoint's own
		dropPorts bool
	}{
		{"negative resume point", -3, false},
		{"resume point past the trace", tr.Len() + 1, false},
		{"empty port state", 0, true},
	}
	// OOOVA-only corruptions of the bounded windows and interval lists whose
	// derived state a restore rebuilds.
	oooCases := []struct {
		name string
		edit func(*ooosim.Checkpoint)
	}{
		{"ROB window count past its capacity", func(ck *ooosim.Checkpoint) {
			ck.ROB.Count = len(ck.ROB.Ring) + 1
		}},
		{"ROB commit count negative", func(ck *ooosim.Checkpoint) {
			ck.ROB.Count = -1
		}},
		{"ROB ring index not matching the commit count", func(ck *ooosim.Checkpoint) {
			ck.ROB.Count, ck.ROB.RI = 2, 5
		}},
		{"ROB commit ring of another length", func(ck *ooosim.Checkpoint) {
			ck.ROB.Ring = ck.ROB.Ring[:len(ck.ROB.Ring)-1]
		}},
		{"issue queue ring index out of range", func(ck *ooosim.Checkpoint) {
			ck.VQ.Window.Next = len(ck.VQ.Window.Leave)
		}},
		{"memory queue window count negative", func(ck *ooosim.Checkpoint) {
			ck.MQ.Window.Count = -1
		}},
		{"unsorted functional-unit intervals", func(ck *ooosim.Checkpoint) {
			ck.FU1.IV = []sched.Interval{{Start: 40, End: 50}, {Start: 10, End: 20}}
		}},
		{"front-stage cycles out of order", func(ck *ooosim.Checkpoint) {
			ck.MQ.Free = [3]int64{12, 10, 11}
		}},
		{"negative issue-port floor", func(ck *ooosim.Checkpoint) {
			ck.SQ.Floor = -1
		}},
		{"empty address-bus interval", func(ck *ooosim.Checkpoint) {
			ck.MSched.Bus.IV = []sched.Interval{{Start: 7, End: 7}}
		}},
		{"ROB commit ring index out of range", func(ck *ooosim.Checkpoint) {
			ck.ROB.RI = len(ck.ROB.Ring)
		}},
		{"free entry out of range", func(ck *ooosim.Checkpoint) {
			free := &ck.Tables[isa.RegV].Free
			*free = append(*free, rename.FreeEntry{Phys: len(ck.Tables[isa.RegV].Refcnt)})
		}},
		{"duplicate free entry", func(ck *ooosim.Checkpoint) {
			free := &ck.Tables[isa.RegS].Free
			*free = append(*free, (*free)[0])
		}},
		{"mapping out of range", func(ck *ooosim.Checkpoint) {
			ck.Tables[isa.RegA].Mapping[3] = -1
		}},
		{"vector tag file shorter than the register file", func(ck *ooosim.Checkpoint) {
			ck.VTags.Tags = ck.VTags.Tags[:2]
		}},
		{"disambiguation entry names a pending store past the list", func(ck *ooosim.Checkpoint) {
			mq := &ck.MQ
			mq.N++
			mq.Entries[(mq.N-1)%len(mq.Entries)] = iq.MemEntryState{
				Start: 0, End: math.MaxUint64, IsStore: true, Pend: len(ck.MSched.Pend) + 3}
		}},
		{"pending store names an entry before the first", func(ck *ooosim.Checkpoint) {
			// An M queue three accesses into its run, whose store buffer's
			// one pending store names entry -5.
			mq := &ck.MQ
			mq.N = 3
			for i := range mq.Entries[:mq.N] {
				mq.Entries[i].Pend = -1
			}
			ck.MSched.Pend = []ooosim.PendStoreState{{Occ: 1, Entry: -5}}
		}},
		{"disambiguation entry names a negative pending store", func(ck *ooosim.Checkpoint) {
			mq := &ck.MQ
			mq.N++
			mq.Entries[(mq.N-1)%len(mq.Entries)].Pend = -2
		}},
		{"disambiguation ring of another length", func(ck *ooosim.Checkpoint) {
			ck.MQ.Entries = ck.MQ.Entries[:len(ck.MQ.Entries)-1]
		}},
		{"return-stack top negative", func(ck *ooosim.Checkpoint) {
			ck.Pred.Top = -1
		}},
		{"return-stack top past its depth", func(ck *ooosim.Checkpoint) {
			ck.Pred.Top = bpred.RASDepth + 1
		}},
		{"BTB counter past 3", func(ck *ooosim.Checkpoint) {
			ck.Pred.BTB[5].Ctr = 4
		}},
	}
	// REF-only corruptions of its three in-order allocators.
	refCases := []struct {
		name string
		edit func(*refsim.Checkpoint)
	}{
		{"unsorted functional-unit intervals", func(ck *refsim.Checkpoint) {
			ck.FU2.IV = []sched.Interval{{Start: 40, End: 50}, {Start: 10, End: 20}}
			ck.FU2.NextFree = 20
		}},
		{"empty address-bus interval", func(ck *refsim.Checkpoint) {
			ck.Bus.IV = []sched.Interval{{Start: 7, End: 7}}
			ck.Bus.NextFree = 7
		}},
		{"next free cycle not the last interval's end", func(ck *refsim.Checkpoint) {
			ck.FU1.IV = []sched.Interval{{Start: 4, End: 9}}
			ck.FU1.NextFree = 12
		}},
	}
	machines := []struct {
		name   string
		resume func(next int, dropPorts bool) error
	}{
		{"OOOVA", func(next int, dropPorts bool) error {
			_, ck, _ := ooosim.NewMachine(ooosim.DefaultConfig()).RunCheckpointed(tr, ooosim.RunOpts{Ctx: canceled})
			if next != 0 {
				ck.NextInsn = next
			}
			if dropPorts {
				ck.FlatPorts = vregfile.FlatFileState{}
			}
			_, _, err := ooosim.NewMachine(ooosim.DefaultConfig()).RunCheckpointed(tr, ooosim.RunOpts{Resume: ck})
			return err
		}},
		{"REF", func(next int, dropPorts bool) error {
			_, ck, _ := refsim.NewMachine(refsim.DefaultConfig()).RunCheckpointed(tr, refsim.RunOpts{Ctx: canceled})
			if next != 0 {
				ck.NextInsn = next
			}
			if dropPorts {
				ck.Ports = vregfile.BankedFileState{}
			}
			_, _, err := refsim.NewMachine(refsim.DefaultConfig()).RunCheckpointed(tr, refsim.RunOpts{Resume: ck})
			return err
		}},
	}
	for _, c := range oooCases {
		t.Run("OOOVA/"+c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("resume panicked: %v", r)
				}
			}()
			_, ck, _ := ooosim.NewMachine(ooosim.DefaultConfig()).RunCheckpointed(tr, ooosim.RunOpts{Ctx: canceled})
			c.edit(ck)
			if _, _, err := ooosim.NewMachine(ooosim.DefaultConfig()).RunCheckpointed(tr, ooosim.RunOpts{Resume: ck}); err == nil {
				t.Fatal("malformed checkpoint resumed without an error")
			}
		})
	}
	for _, c := range refCases {
		t.Run("REF/"+c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("resume panicked: %v", r)
				}
			}()
			_, ck, _ := refsim.NewMachine(refsim.DefaultConfig()).RunCheckpointed(tr, refsim.RunOpts{Ctx: canceled})
			c.edit(ck)
			if _, _, err := refsim.NewMachine(refsim.DefaultConfig()).RunCheckpointed(tr, refsim.RunOpts{Resume: ck}); err == nil {
				t.Fatal("malformed checkpoint resumed without an error")
			}
		})
	}
	for _, m := range machines {
		for _, c := range cases {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("resume panicked: %v", r)
					}
				}()
				if err := m.resume(c.next, c.dropPorts); err == nil {
					t.Fatal("malformed checkpoint resumed without an error")
				}
			})
		}
	}
}
