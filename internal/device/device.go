// Package device defines the storage-device abstraction the simulator core
// drives, plus the parameter catalog for every hardware product the paper
// measures or simulates (Table 2 and §3/§4.2).
package device

import (
	"mobilestorage/internal/energy"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// Request is one device-level operation, produced by preprocessing a
// file-level trace record through a trace.Layout.
type Request struct {
	// Time is the arrival instant.
	Time units.Time
	// Op is Read, Write, or Delete.
	Op trace.Op
	// File is the originating file ID; device models use it for the paper's
	// "repeated accesses to the same file never seek" assumption (§4.2).
	File uint32
	// Addr is the device byte address.
	Addr units.Bytes
	// Size is the transfer size in bytes.
	Size units.Bytes
}

// Device is a non-volatile storage device model.
//
// Devices are single-server queues over simulated time: Access returns the
// completion instant of the request, queueing it behind any in-progress
// work (start = max(arrival, busy-until)). Response time is
// completion − arrival.
//
// The core calls Idle before each request and Finish once at the end so
// devices can integrate idle-period energy and perform background work
// (disk spin-down, flash cleaning, asynchronous erasure). Background work is
// suspended while host I/O is in progress, per §4.2.
type Device interface {
	// Access performs a read or write and returns its completion time.
	// Delete requests invalidate the extent and complete instantly (they
	// are metadata operations in the traced file systems).
	Access(req Request) units.Time
	// Idle advances the device's background activity and energy accounting
	// to the given instant. now never moves backwards.
	Idle(now units.Time)
	// Finish finalizes energy accounting at the end of the simulation.
	Finish(now units.Time)
	// Meter exposes the device's energy accounting.
	Meter() *energy.Meter
	// Name identifies the modeled product.
	Name() string
}

// Crasher is implemented by devices that model power failure. Crash drops
// volatile state (queued work, in-flight cleaning, controller progress) at
// the given instant; non-volatile media and battery-backed buffers survive.
// Recover performs the post-restart repair pass — consistency scans,
// replaying surviving buffered writes — charging its time and energy, and
// returns the instant recovery completes. The core calls Idle(at), then
// Crash(at), then Recover(at) before resuming the trace.
type Crasher interface {
	Crash(at units.Time)
	Recover(at units.Time) units.Time
}

// WearReporter is implemented by devices with erase-cycle endurance limits
// (both flash models) so experiments can report §5.2's endurance numbers.
type WearReporter interface {
	// Wear summarizes the erasures without building the per-unit counts.
	// It equals the fold of EraseCounts.
	Wear() Wear
	// EraseCounts returns the number of erasures per erase unit.
	EraseCounts() []int64
}

// Wear is the summary of a device's per-unit erase counts that §5.2's
// endurance columns need: the mean per unit is Sum/Units.
type Wear struct {
	// Sum is the total erasures over all units.
	Sum int64
	// Max is the erase count of the most-erased unit.
	Max int64
	// Units is the number of erase units.
	Units int64
}

// Composite is implemented by devices assembled from other devices: the
// flash-cache hybrid (its disk and its flash card) and arrays (their
// current members in slot order, then the devices retired after a death).
// The core reads counters, wear and live data off the parts, so every
// component of a composite is reported exactly once.
type Composite interface {
	Parts() []Device
}

// Spinner is implemented by devices that spin down to save energy (the
// magnetic disk).
type Spinner interface {
	SpinUps() int64
	SpinDowns() int64
}

// Cleaner is implemented by log-structured devices whose cleaner copies
// live data before erasing (the flash card), for §5.3's cleaning cost.
type Cleaner interface {
	// TotalErases counts erase operations.
	TotalErases() int64
	// CopiedBlocks counts blocks the cleaner relocated.
	CopiedBlocks() int64
	// HostBlocks counts blocks the host wrote.
	HostBlocks() int64
	// Stalls counts host writes that waited for erased space.
	Stalls() int64
	// CleaningTime is the busy time spent copying and erasing.
	CleaningTime() units.Time
	// HostTime is the busy time spent on host transfers.
	HostTime() units.Time
}
