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
// presets at 4,000 instructions under four configurations. Each entry is
// the SHA-256 of the stats' %+v rendering, computed before the occupancy
// and interval-search data structures were rewritten, so a change to how a
// structure is scanned can never change what the simulator reports.
func TestOOOStatsGolden(t *testing.T) {
	q128 := DefaultConfig()
	q128.QueueSlots = 128
	late := DefaultConfig()
	late.Commit = rob.PolicyLate
	elim := DefaultConfig()
	elim.LoadElim = ElimSLEVLE
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"q128", q128},
		{"late", late},
		{"sle+vle", elim},
	}
	golden := map[string]string{
		"swm256/default":  "86f3c37876bbfe76",
		"swm256/q128":     "45883d63d5fe736f",
		"swm256/late":     "72f342245162df41",
		"swm256/sle+vle":  "11a5eafbaad724e3",
		"hydro2d/default": "2f4fb153a3c662ae",
		"hydro2d/q128":    "45fccf20ec952145",
		"hydro2d/late":    "122f856e05187a48",
		"hydro2d/sle+vle": "6ed9e8a446d2e0a7",
		"arc2d/default":   "347939b2becd00c1",
		"arc2d/q128":      "e53e6db702310a66",
		"arc2d/late":      "5fc53f2cf9c97f49",
		"arc2d/sle+vle":   "cf095d95b0ddde52",
		"flo52/default":   "d8ffed944b98dd79",
		"flo52/q128":      "37cfe3fc8b2049bc",
		"flo52/late":      "08c080609fa0a144",
		"flo52/sle+vle":   "7f047cde0a005488",
		"nasa7/default":   "cfa4e18c8f5f8515",
		"nasa7/q128":      "cdd7120926d6763e",
		"nasa7/late":      "a7072455ef015045",
		"nasa7/sle+vle":   "69aeeaea2ab6de11",
		"su2cor/default":  "ffe5675884b9e868",
		"su2cor/q128":     "7fcd5751899c501b",
		"su2cor/late":     "a0b6d3ea04aede48",
		"su2cor/sle+vle":  "b4a12ca2ec64514a",
		"tomcatv/default": "ea86f18679a5674b",
		"tomcatv/q128":    "2e585bd40b1d8f78",
		"tomcatv/late":    "0721df0427c926f5",
		"tomcatv/sle+vle": "58d6c9d18b1bc5f0",
		"bdna/default":    "07802e4037558a89",
		"bdna/q128":       "2fb134238463c6e0",
		"bdna/late":       "c870ad53d9f9ebe7",
		"bdna/sle+vle":    "c957c7f0c6016565",
		"trfd/default":    "e6d86cd34d38c017",
		"trfd/q128":       "f816e379a1405c98",
		"trfd/late":       "f9a1ff865b3129b5",
		"trfd/sle+vle":    "31ef0b629c919574",
		"dyfesm/default":  "e9540783df8bdacd",
		"dyfesm/q128":     "b5bc9010aa004953",
		"dyfesm/late":     "b936c2737a28ebc7",
		"dyfesm/sle+vle":  "22a6f2f2ba0de32f",
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
