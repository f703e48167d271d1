package ooosim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"oovec/internal/rob"
	"oovec/internal/tgen"
)

// TestOOOStatsGolden pins the complete OOOVA RunStats — cycles, the state
// breakdown, stall attribution and every occupancy histogram — of the ten
// presets at 4,000 instructions under six configurations. Each entry is
// the SHA-256 of the stats' %+v rendering, computed before the data
// structure a configuration exercises was rewritten: the first four before
// the occupancy and interval searches, the last two (scalar-only
// elimination, 128-slot queues with elimination) before the address-overlap
// queries. When the two elided-store counters left RunStats, every entry
// was recomputed from the code before the deletion, with those counters
// taken out of its rendering. A change to how a structure is searched can
// never change what the simulator reports.
func TestOOOStatsGolden(t *testing.T) {
	q128 := DefaultConfig()
	q128.QueueSlots = 128
	late := DefaultConfig()
	late.Commit = rob.PolicyLate
	elim := DefaultConfig()
	elim.LoadElim = ElimSLEVLE
	sle := DefaultConfig()
	sle.LoadElim = ElimSLE
	q128Elim := elim
	q128Elim.QueueSlots = 128
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"q128", q128},
		{"late", late},
		{"sle+vle", elim},
		{"sle", sle},
		{"q128+sle+vle", q128Elim},
	}
	golden := map[string]string{
		"swm256/default":       "ea23b5b01829f6fb",
		"swm256/q128":          "9f46e594b851caf8",
		"swm256/late":          "cf60c16da66ef7b0",
		"swm256/sle+vle":       "75d591209116d118",
		"swm256/sle":           "4abf6935f512a3df",
		"swm256/q128+sle+vle":  "3858b6fc1bedc40d",
		"hydro2d/default":      "71ff71ffbabbae13",
		"hydro2d/q128":         "dbff0c87b0c32b2b",
		"hydro2d/late":         "2afb9766fca3f8a1",
		"hydro2d/sle+vle":      "a6638abdabc26c17",
		"hydro2d/sle":          "741f6c76a6b60db7",
		"hydro2d/q128+sle+vle": "173799601c09a348",
		"arc2d/default":        "4d6b19037751813f",
		"arc2d/q128":           "bedd9d0451f9dcd2",
		"arc2d/late":           "2dac06ecbc59e26e",
		"arc2d/sle+vle":        "57ee897a677fdd25",
		"arc2d/sle":            "7648b21ccfd0bd13",
		"arc2d/q128+sle+vle":   "445d17ca1b3dd71c",
		"flo52/default":        "49b7121ca76c586c",
		"flo52/q128":           "a21211ef2f7819ab",
		"flo52/late":           "447f7ea4738ca1b5",
		"flo52/sle+vle":        "bf79f15528503deb",
		"flo52/sle":            "7f90a3c260bc02bc",
		"flo52/q128+sle+vle":   "8d1e51efff6fa78a",
		"nasa7/default":        "d5695c8725af90d3",
		"nasa7/q128":           "7a4f207f249f927d",
		"nasa7/late":           "8a2a122ebf38237e",
		"nasa7/sle+vle":        "91b653325cc0ad6e",
		"nasa7/sle":            "dd7b02f627ba3b71",
		"nasa7/q128+sle+vle":   "b29f93c1ef2a2050",
		"su2cor/default":       "c4a4f448f28d5a7c",
		"su2cor/q128":          "e21d2c94f53ae76e",
		"su2cor/late":          "106ffb7c08d7cf88",
		"su2cor/sle+vle":       "0512051084b063da",
		"su2cor/sle":           "13aa15712357cce3",
		"su2cor/q128+sle+vle":  "0d1c496c721dc601",
		"tomcatv/default":      "c421e65bf25f64e8",
		"tomcatv/q128":         "e13c554caa0497c9",
		"tomcatv/late":         "6d4d8dcd530dcd72",
		"tomcatv/sle+vle":      "02b619025b116463",
		"tomcatv/sle":          "b52fece6a3fd22e0",
		"tomcatv/q128+sle+vle": "29a0ffc450fc9ece",
		"bdna/default":         "f23da533b0a0c4c1",
		"bdna/q128":            "5c0c5a34f3895932",
		"bdna/late":            "4aaf09e330c3ad40",
		"bdna/sle+vle":         "a1494099dd389be0",
		"bdna/sle":             "d71b28f80b1fbfbd",
		"bdna/q128+sle+vle":    "a7da819a784ccc3b",
		"trfd/default":         "cc568bd18dfec982",
		"trfd/q128":            "0e952d0d6c755be5",
		"trfd/late":            "fe12bcb8429ee957",
		"trfd/sle+vle":         "307cdb8444b98464",
		"trfd/sle":             "62ce2a50c298c8e4",
		"trfd/q128+sle+vle":    "0828b67f2332cdfb",
		"dyfesm/default":       "0a0a00232fbf0f97",
		"dyfesm/q128":          "36199060e29f090b",
		"dyfesm/late":          "4fd173153fd89251",
		"dyfesm/sle+vle":       "b40daaea02f181a3",
		"dyfesm/sle":           "bac92f7d732236ff",
		"dyfesm/q128+sle+vle":  "22d354549d5d6b88",
	}
	mm := NewMachine(DefaultConfig())
	for _, p := range tgen.Presets() {
		p.Insns = 4000
		tr := tgen.Generate(p)
		for _, c := range configs {
			key := p.Name + "/" + c.name
			mm.Reset(c.cfg)
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *mm.Run(tr).Stats)))
			if got := hex.EncodeToString(sum[:8]); got != golden[key] {
				t.Errorf("%s: stats hash %s, want %s", key, got, golden[key])
			}
		}
	}
}
