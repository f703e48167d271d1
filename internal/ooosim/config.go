// Package ooosim simulates the OOOVA — the dynamic, out-of-order, register-
// renaming vector architecture that is the paper's central proposal (§2.2),
// including the precise-trap commit model of §5 and the dynamic load
// elimination technique of §6.
//
// Pipeline structure (paper Figures 1, 2 and 10):
//
//	Fetch → Decode/Rename → {A queue, S queue, V queue, M queue} → units
//
// Instructions flow in order through Fetch and Decode/Rename, where four
// mapping tables (A, S, V, mask) translate architectural registers into
// physical registers and a reorder-buffer slot is allocated. The A, S and V
// queues issue out of order as operands become ready. Memory instructions
// traverse the M queue's three in-order stages (Issue/RF, Range,
// Dependence) and then issue memory requests out of order, subject to
// range-based dynamic memory disambiguation.
//
// Under dynamic load elimination (§6.2), all instructions that use a vector
// register are renamed at the Dependence stage instead of at decode, so
// they all pass in order through the memory front pipeline; loads whose
// memory tag exactly matches a physical register's tag are eliminated with
// a rename-table update.
package ooosim

import (
	"oovec/internal/probe"
	"oovec/internal/rob"
)

// ElimMode selects the §6 dynamic load elimination configuration.
type ElimMode uint8

const (
	// ElimNone disables load elimination (the plain OOOVA).
	ElimNone ElimMode = iota
	// ElimSLE eliminates scalar loads only (the paper's "SLE").
	ElimSLE
	// ElimSLEVLE eliminates scalar and vector loads ("SLE+VLE").
	ElimSLEVLE
)

// String names the mode as the paper does.
func (m ElimMode) String() string {
	switch m {
	case ElimSLE:
		return "SLE"
	case ElimSLEVLE:
		return "SLE+VLE"
	}
	return "none"
}

// The scalar and mask physical register file sizes and the misprediction
// bubble are fixed by the paper, not swept.
const (
	// PhysARegs and PhysSRegs are the scalar physical register file sizes
	// (64 each in the paper).
	PhysARegs = 64
	PhysSRegs = 64
	// PhysMRegs is the mask physical register file size (8 in the paper).
	PhysMRegs = 8
	// MispredictPenalty is the front-end refill bubble after a control
	// misprediction, in cycles (fetch + decode + redirect).
	MispredictPenalty = 3
)

// Config parameterises the OOOVA.
type Config struct {
	// PhysVRegs is the number of physical vector registers (paper sweeps
	// 9–64; 16 is the headline configuration).
	PhysVRegs int
	// QueueSlots is the instruction queue depth (16, or 128 for OOOVA-128).
	QueueSlots int
	// ROBSize is the reorder buffer capacity (64).
	ROBSize int
	// CommitWidth is the maximum commits per cycle (4).
	CommitWidth int
	// MemLatency is the main-memory latency in cycles (default 50).
	MemLatency int64
	// ScalarMemLatency is the latency of scalar references, which hit the
	// scalar data cache that machines of this class carried (default 6).
	ScalarMemLatency int64
	// Commit selects the early (§2.2) or late (§5, precise traps) policy.
	Commit rob.Policy
	// LoadElim selects the §6 configuration.
	LoadElim ElimMode
	// ElideDeadSpillStores enables the paper's §6 future-work idea
	// ("relaxing compatibility could lead to removing some spill stores"):
	// a spill store held in the store buffer is elided when a later spill
	// store overwrites exactly the same slot before any overlapping access
	// consumed it. Relaxes strict binary compatibility (the memory image
	// no longer reflects every spill); effective under early commit only —
	// late commit executes stores at the ROB head, before the overwrite
	// arrives.
	ElideDeadSpillStores bool
	// Sink, when non-nil, receives per-instruction pipeline lifecycle
	// events and stall-cause notifications (package probe). Observation
	// only: attaching a sink never changes the run's RunStats — everything
	// it is told is accumulated into the stats regardless.
	Sink probe.Sink
}

// DefaultConfig returns the paper's headline OOOVA configuration: 16
// physical vector registers, 16-slot queues, 64-entry ROB, 4-wide commit,
// 50-cycle memory, early commit.
func DefaultConfig() Config {
	return Config{
		PhysVRegs:        16,
		QueueSlots:       16,
		ROBSize:          64,
		CommitWidth:      4,
		MemLatency:       50,
		ScalarMemLatency: 6,
		Commit:           rob.PolicyEarly,
		LoadElim:         ElimNone,
	}
}

// WithDefaults returns the configuration with every zero field filled with
// the paper's value — exactly what the simulator runs with. Callers that
// record configurations (the sweep CSV writer) use it so reported
// parameters cannot drift from the simulated ones.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.PhysVRegs == 0 {
		c.PhysVRegs = d.PhysVRegs
	}
	if c.QueueSlots == 0 {
		c.QueueSlots = d.QueueSlots
	}
	if c.ROBSize == 0 {
		c.ROBSize = d.ROBSize
	}
	if c.CommitWidth == 0 {
		c.CommitWidth = d.CommitWidth
	}
	if c.MemLatency == 0 {
		c.MemLatency = d.MemLatency
	}
	if c.ScalarMemLatency == 0 {
		c.ScalarMemLatency = d.ScalarMemLatency
	}
	return c
}

// Name renders a short configuration label, e.g. "OOOVA+SLE". The
// labels of the paper's modes are constants, so a run's result does not
// allocate one.
func (c Config) Name() string {
	switch c.LoadElim {
	case ElimNone:
		return "OOOVA"
	case ElimSLE:
		return "OOOVA+SLE"
	case ElimSLEVLE:
		return "OOOVA+SLE+VLE"
	}
	return "OOOVA+" + c.LoadElim.String()
}
