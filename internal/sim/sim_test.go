package sim_test

import (
	"context"
	"testing"

	"oovec/internal/ooosim"
	"oovec/internal/refsim"
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
