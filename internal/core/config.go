// Package core is the paper's primary contribution: a trace-driven
// simulator of mobile-computer storage hierarchies (§4.2). It composes a
// DRAM buffer cache, an optional battery-backed SRAM write buffer, and one
// of three storage device models (magnetic disk, flash disk emulator, flash
// memory card), replays a file-level trace through the stack, and reports
// energy consumption, response-time statistics, and flash endurance.
package core

import (
	"fmt"

	"mobilestorage/internal/array"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// StorageKind selects the non-volatile storage architecture (§2).
type StorageKind uint8

// The three architectures the paper compares, plus the flash-as-disk-cache
// hybrid its related work (§6, Marsh et al.) proposes.
const (
	MagneticDisk StorageKind = iota
	FlashDisk
	FlashCard
	FlashCache
)

// String names the storage kind.
func (k StorageKind) String() string {
	switch k {
	case MagneticDisk:
		return "disk"
	case FlashDisk:
		return "flashdisk"
	case FlashCard:
		return "flashcard"
	case FlashCache:
		return "flashcache"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Config describes one simulation run: a workload replayed through a
// storage hierarchy. Zero values give the paper's defaults where the paper
// defines one.
type Config struct {
	// Trace is the workload to replay.
	Trace *trace.Trace
	// WarmFraction of the records warm the cache before statistics start
	// (§4.2). Negative disables warm-up; zero means the paper's 0.1.
	WarmFraction float64

	// DRAMBytes sizes the buffer cache; zero bypasses it entirely, which is
	// how the hp trace must be run (§4.1). DRAM parameters default to the
	// NEC part from the catalog.
	DRAMBytes units.Bytes
	DRAM      *device.MemoryParams
	// WriteBack enables the write-back cache ablation (the paper simulates
	// write-through only).
	WriteBack bool

	// Kind selects the storage architecture; the matching parameter struct
	// below must be set.
	Kind StorageKind

	// Disk configures MagneticDisk runs.
	Disk device.DiskParams
	// SpinDown is the host spin-down policy timeout (the paper's default
	// experiments use 5 s). Zero means never spin down.
	SpinDown units.Time
	// SpinPolicy, when non-empty, selects a named spin-down policy instead
	// of the fixed SpinDown threshold: "immediate", "adaptive", or
	// "always-on". Used by the spin-down ablation.
	SpinPolicy string

	// SRAMBytes adds a battery-backed write buffer in front of the storage
	// device. The paper's disk simulations use 32 KB "except where noted";
	// it can also front flash devices (the §7 extension). SRAM parameters
	// default to the NEC part.
	SRAMBytes units.Bytes
	SRAM      *device.MemoryParams

	// FlashDiskParams configures FlashDisk runs.
	FlashDiskParams device.FlashDiskParams
	// AsyncErase enables the SDP5A asynchronous-erasure discipline (§5.3).
	AsyncErase bool

	// FlashCardParams configures FlashCard runs.
	FlashCardParams device.FlashCardParams
	// CleaningPolicy names the victim-selection policy ("greedy" default,
	// "cost-benefit", "fifo").
	CleaningPolicy string
	// OnDemandCleaning disables background cleaning (§4.2's "on-demand"
	// cleaning parameter).
	OnDemandCleaning bool
	// WearLeveling, when positive, enables static wear leveling with the
	// given erase-count imbalance threshold (§2's load-spreading aside).
	WearLeveling int64

	// FlashUtilization is the fraction of flash occupied by live data at
	// the start of the run (§4.2, §5.2). Zero means the paper's default of
	// 0.80. Applies to FlashCard runs when FlashCapacity is zero.
	FlashUtilization float64
	// FlashCapacity, when non-zero, fixes the flash size explicitly
	// (Figure 4 sweeps 34–38 MB); otherwise capacity is derived from the
	// stored data and FlashUtilization.
	FlashCapacity units.Bytes
	// StoredData, when non-zero, is the amount of live data preallocated in
	// flash (Figure 4 stores 32 MB); otherwise the trace's own footprint is
	// used. Must be at least the trace footprint.
	StoredData units.Bytes

	// FlashCacheBytes sizes the flash block cache of the FlashCache hybrid
	// (disk + flash cache, §6). Defaults to 4 MB. The hybrid also uses
	// Disk, SpinDown, and FlashCardParams.
	FlashCacheBytes units.Bytes

	// Array, when non-nil, replaces the single storage device with a
	// striped or mirrored composite (internal/array): members are built
	// from the same parameter structs as single-device runs ("flashcard"
	// members share FlashCardParams and the cleaning knobs, "disk" members
	// share Disk/SpinDown). Kind is ignored when Array is set. Parse a
	// topology string ("mirror:2xflashcard") with array.ParseSpec.
	Array *array.Spec
	// MemberFaults assigns each array member its own fault plan, keyed
	// "m0", "m1", … with "*" as the default (fault.ParsePlanSet). Member
	// plans may use die_at_us / die_after_erases / latent_error_rate /
	// carry_cleaning_backlog in addition to the transient-fault knobs;
	// power failures stay system-wide in Faults. Requires Array, and each
	// "m<N>" key must name one of its members.
	MemberFaults fault.PlanSet

	// Faults, when non-nil and non-empty, enables deterministic fault
	// injection: transient read/write/erase errors with retry and backoff,
	// wear-out bad-block retirement with spare provisioning, and scheduled
	// power failures with crash recovery. Results for a given trace, plan,
	// and FaultSeed are reproducible. Nil keeps the fault-free path
	// byte-identical to a build without fault injection.
	Faults *fault.Plan
	// FaultSeed seeds the fault injector's deterministic generator.
	FaultSeed int64

	// Observer, when non-nil, receives every measured operation as it
	// completes — an op-level log for debugging and external analysis.
	// It must not retain the observation beyond the call.
	Observer func(OpObservation)

	// Scope, when non-nil, receives metrics and (if it carries a tracer)
	// structured events from every layer of the stack. Instrumentation is
	// strictly read-only: attaching a scope never changes simulation
	// results. Nil disables observability at zero cost.
	Scope *obs.Scope

	// Prep, when non-nil and built from this exact Trace, supplies the
	// per-trace preprocessing (validation, file-size hints, footprint) so
	// repeated runs over one trace — parameter sweeps, figure experiments —
	// skip the redundant whole-trace walks. A Prep built from a different
	// Trace is ignored and the preprocessing recomputed; results are
	// byte-identical either way. Build one with PrepareTrace.
	Prep *TracePrep

	// Reference routes the run through the frozen reference replay loop
	// (runReference): the original map-backed layout, buffer cache, and
	// interface-dispatched device calls, kept verbatim as the
	// obviously-correct baseline. The differential test harness
	// (internal/core/difftest) runs every configuration both ways and
	// requires byte-identical results; production callers leave this false.
	Reference bool

	// SampleEvery, when positive, snapshots Scope's registry every
	// SampleEvery of simulated time into Result.Timeline, adding derived
	// energy gauges (energy.total_j and per-component) at each point and —
	// when Scope carries a tracer — sample.energy events into the stream.
	// Requires a Scope with a registry; zero disables sampling at the cost
	// of one nil check per trace record.
	SampleEvery units.Time
}

// OpObservation is one completed trace operation as seen by the simulator.
type OpObservation struct {
	// Index is the record's position in the trace.
	Index int
	// Arrival and Response describe the operation's timing.
	Arrival  units.Time
	Response units.Time
	// Op is the operation type; CacheHit reports whether the DRAM cache
	// absorbed it.
	Op       trace.Op
	CacheHit bool
	// Size is the transfer size.
	Size units.Bytes
}

// withDefaults returns the config with the paper's defaults filled in.
func (c Config) withDefaults() Config {
	if c.WarmFraction == 0 {
		c.WarmFraction = 0.1
	}
	if c.WarmFraction < 0 {
		c.WarmFraction = 0
	}
	if c.DRAM == nil {
		p := device.NECDRAM()
		c.DRAM = &p
	}
	if c.SRAM == nil {
		p := device.NECSRAM()
		c.SRAM = &p
	}
	if c.FlashUtilization == 0 {
		c.FlashUtilization = 0.80
	}
	if c.CleaningPolicy == "" {
		c.CleaningPolicy = "greedy"
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Trace == nil {
		return fmt.Errorf("core: no trace configured")
	}
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	return c.validateNonTrace()
}

// validateNonTrace checks everything Validate does except the O(records)
// trace walk, which Run skips when a matching TracePrep already vouched for
// the trace.
func (c Config) validateNonTrace() error {
	if c.FlashUtilization < 0 || c.FlashUtilization > 0.99 {
		return fmt.Errorf("core: flash utilization %.2f out of (0, 0.99]", c.FlashUtilization)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		if c.Faults.DieAtUs > 0 || c.Faults.DieAfterErases > 0 {
			return fmt.Errorf("core: die_at_us/die_after_erases are per-member fault-domain fields; put them in MemberFaults (an array member plan), not the system plan")
		}
	}
	if len(c.MemberFaults) > 0 {
		if c.Array == nil {
			return fmt.Errorf("core: MemberFaults requires an Array configuration")
		}
		if err := c.MemberFaults.Validate(); err != nil {
			return err
		}
		if err := c.MemberFaults.CheckMembers(len(c.Array.Members)); err != nil {
			return err
		}
	}
	if c.Array != nil {
		if len(c.Array.Members) == 0 {
			return fmt.Errorf("core: array spec has no members")
		}
		return nil // member kinds pick their own params; Kind is ignored
	}
	switch c.Kind {
	case MagneticDisk, FlashDisk, FlashCard, FlashCache:
		return nil
	default:
		return fmt.Errorf("core: unknown storage kind %d", c.Kind)
	}
}
