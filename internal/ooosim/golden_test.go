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
// presets at 4,000 instructions under seven configurations. Each entry is
// the SHA-256 of the stats' %+v rendering, computed before the data
// structure a configuration exercises was rewritten: the first four before
// the occupancy and interval searches, the last three (scalar-only
// elimination, dead-spill-store elision, 128-slot queues with elimination)
// before the address-overlap queries. A change to
// how a structure is searched can never change what the simulator reports.
func TestOOOStatsGolden(t *testing.T) {
	q128 := DefaultConfig()
	q128.QueueSlots = 128
	late := DefaultConfig()
	late.Commit = rob.PolicyLate
	elim := DefaultConfig()
	elim.LoadElim = ElimSLEVLE
	sle := DefaultConfig()
	sle.LoadElim = ElimSLE
	elide := DefaultConfig()
	elide.ElideDeadSpillStores = true
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
		{"elide", elide},
		{"q128+sle+vle", q128Elim},
	}
	golden := map[string]string{
		"swm256/default":       "86f3c37876bbfe76",
		"swm256/q128":          "45883d63d5fe736f",
		"swm256/late":          "72f342245162df41",
		"swm256/sle+vle":       "11a5eafbaad724e3",
		"swm256/sle":           "13ed33de65ff91dc",
		"swm256/elide":         "75d179b448b1fbec",
		"swm256/q128+sle+vle":  "8294b7202a23d171",
		"hydro2d/default":      "2f4fb153a3c662ae",
		"hydro2d/q128":         "45fccf20ec952145",
		"hydro2d/late":         "122f856e05187a48",
		"hydro2d/sle+vle":      "6ed9e8a446d2e0a7",
		"hydro2d/sle":          "d02ab544a04437ba",
		"hydro2d/elide":        "3946f5ce543d1201",
		"hydro2d/q128+sle+vle": "a79614e2226e6b7d",
		"arc2d/default":        "347939b2becd00c1",
		"arc2d/q128":           "e53e6db702310a66",
		"arc2d/late":           "5fc53f2cf9c97f49",
		"arc2d/sle+vle":        "cf095d95b0ddde52",
		"arc2d/sle":            "05c0d2da9bfd1bf4",
		"arc2d/elide":          "c381b70b03901739",
		"arc2d/q128+sle+vle":   "c01dbb58dee46184",
		"flo52/default":        "d8ffed944b98dd79",
		"flo52/q128":           "37cfe3fc8b2049bc",
		"flo52/late":           "08c080609fa0a144",
		"flo52/sle+vle":        "7f047cde0a005488",
		"flo52/sle":            "620bd124986d9844",
		"flo52/elide":          "e9731fcaaa86caff",
		"flo52/q128+sle+vle":   "334ef3b40a0eb813",
		"nasa7/default":        "cfa4e18c8f5f8515",
		"nasa7/q128":           "cdd7120926d6763e",
		"nasa7/late":           "a7072455ef015045",
		"nasa7/sle+vle":        "69aeeaea2ab6de11",
		"nasa7/sle":            "9c8f78a9d22ef649",
		"nasa7/elide":          "8f8f998449dc4420",
		"nasa7/q128+sle+vle":   "a0afcb257105f451",
		"su2cor/default":       "ffe5675884b9e868",
		"su2cor/q128":          "7fcd5751899c501b",
		"su2cor/late":          "a0b6d3ea04aede48",
		"su2cor/sle+vle":       "b4a12ca2ec64514a",
		"su2cor/sle":           "d9afa08a35229778",
		"su2cor/elide":         "5b0c33fa9046c4bd",
		"su2cor/q128+sle+vle":  "ca5159039843c5ab",
		"tomcatv/default":      "ea86f18679a5674b",
		"tomcatv/q128":         "2e585bd40b1d8f78",
		"tomcatv/late":         "0721df0427c926f5",
		"tomcatv/sle+vle":      "58d6c9d18b1bc5f0",
		"tomcatv/sle":          "771dece148365cbb",
		"tomcatv/elide":        "80a9f2550c48308e",
		"tomcatv/q128+sle+vle": "49685eae23c7ce88",
		"bdna/default":         "07802e4037558a89",
		"bdna/q128":            "2fb134238463c6e0",
		"bdna/late":            "c870ad53d9f9ebe7",
		"bdna/sle+vle":         "c957c7f0c6016565",
		"bdna/sle":             "a60f602cc7b21aec",
		"bdna/elide":           "0111d1e744c37029",
		"bdna/q128+sle+vle":    "e9c844b7124b1494",
		"trfd/default":         "e6d86cd34d38c017",
		"trfd/q128":            "f816e379a1405c98",
		"trfd/late":            "f9a1ff865b3129b5",
		"trfd/sle+vle":         "31ef0b629c919574",
		"trfd/sle":             "83df9b226399c311",
		"trfd/elide":           "d6bac250a58eba45",
		"trfd/q128+sle+vle":    "a7ad473ce5535130",
		"dyfesm/default":       "e9540783df8bdacd",
		"dyfesm/q128":          "b5bc9010aa004953",
		"dyfesm/late":          "b936c2737a28ebc7",
		"dyfesm/sle+vle":       "22a6f2f2ba0de32f",
		"dyfesm/sle":           "a25c63167aff8bff",
		"dyfesm/elide":         "a030bd968d6df5af",
		"dyfesm/q128+sle+vle":  "6dac73c4f775b1f2",
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
