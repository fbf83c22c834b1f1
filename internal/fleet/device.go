// Package fleet turns the single-run simulator into a simulation service:
// a job API accepts a config or parameter grid, a bounded sharded worker
// pool fans the runs out in-process, and fleet-level aggregates (percentile
// latency, energy, wear, cleaning, faults) stream out through mergeable
// report builders as shards complete — constant memory in the number of
// runs, with live progress over Server-Sent Events and per-report SVG
// figures. See docs/SERVICE.md.
//
// The package is also where a device name and the paper's defaults become
// a core.Config (SelectDevice, DefaultDRAM, DefaultSRAM, DefaultSpinDown,
// SizeBuffers), for the storagesim CLI and the experiments alike. A job's
// runs fan out and merge back in index order on sweep.Run, the pool the
// experiments and obsreport's shard decoder share.
package fleet

import (
	"fmt"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/units"
)

// The paper's defaults for a run's buffers and disk policy.
const (
	// DefaultSpinDown is the disk spin-down threshold: "a good compromise
	// between energy consumption and response time" (§4.2).
	DefaultSpinDown = 5 * units.Second
	// DefaultSRAM is the battery-backed write buffer in front of a disk
	// (§5.5).
	DefaultSRAM = 32 * units.KB
)

// DefaultDRAM returns the DRAM buffer cache for a trace: 2 MB, except for
// the hp trace, which was captured below the buffer cache and so runs
// cacheless (§4.1).
func DefaultDRAM(traceName string) units.Bytes {
	if traceName == "hp" {
		return 0
	}
	return 2 * units.MB
}

// SizeBuffers sets cfg's DRAM cache and SRAM write buffer from sizes in KB.
// A negative size asks for the paper's default: DefaultDRAM for cfg.Trace,
// and DefaultSRAM in front of a lone disk but none in front of flash or an
// array. cfg's trace, kind and array must already be set.
func SizeBuffers(cfg *core.Config, dramKB, sramKB int64) {
	cfg.DRAMBytes = DefaultDRAM(cfg.Trace.Name)
	if dramKB >= 0 {
		cfg.DRAMBytes = units.Bytes(dramKB) * units.KB
	}
	cfg.SRAMBytes = 0
	switch {
	case sramKB >= 0:
		cfg.SRAMBytes = units.Bytes(sramKB) * units.KB
	case cfg.Array == nil && cfg.Kind == core.MagneticDisk:
		cfg.SRAMBytes = DefaultSRAM
	}
}

// SelectDevice fills cfg's storage kind and parameters for a catalog device
// name: cu140, kh, sdp10, sdp5, sdp5a (the SDP5 with asynchronous erasure,
// §5.3), intel or intel2+. source picks the parameter provenance:
// "measured", "datasheet", or "" for the best available (measured when the
// paper reports it, datasheet otherwise). This is the one device-name
// resolver; the storagesim CLI, the fleet job API and the experiments all
// use it.
func SelectDevice(cfg *core.Config, name, source string) error {
	pick := func(measured, datasheet func() bool) error {
		switch source {
		case "", "measured":
			if measured() {
				return nil
			}
			if source == "measured" {
				return fmt.Errorf("no measured parameters for %q", name)
			}
			datasheet()
			return nil
		case "datasheet":
			if datasheet() {
				return nil
			}
			return fmt.Errorf("no datasheet parameters for %q", name)
		default:
			return fmt.Errorf("unknown source %q (want measured or datasheet)", source)
		}
	}
	switch name {
	case "cu140":
		cfg.Kind = core.MagneticDisk
		return pick(
			func() bool { cfg.Disk = device.CU140Measured(); return true },
			func() bool { cfg.Disk = device.CU140Datasheet(); return true },
		)
	case "kh":
		cfg.Kind = core.MagneticDisk
		return pick(
			func() bool { return false },
			func() bool { cfg.Disk = device.KittyhawkDatasheet(); return true },
		)
	case "sdp10":
		cfg.Kind = core.FlashDisk
		return pick(
			func() bool { cfg.FlashDiskParams = device.SDP10Measured(); return true },
			func() bool { cfg.FlashDiskParams = device.SDP10Datasheet(); return true },
		)
	case "sdp5", "sdp5a":
		cfg.Kind = core.FlashDisk
		if name == "sdp5a" {
			cfg.AsyncErase = true
		}
		return pick(
			func() bool { return false },
			func() bool { cfg.FlashDiskParams = device.SDP5Datasheet(); return true },
		)
	case "intel":
		cfg.Kind = core.FlashCard
		return pick(
			func() bool { cfg.FlashCardParams = device.IntelSeries2Measured(); return true },
			func() bool { cfg.FlashCardParams = device.IntelSeries2Datasheet(); return true },
		)
	case "intel2+":
		cfg.Kind = core.FlashCard
		return pick(
			func() bool { return false },
			func() bool { cfg.FlashCardParams = device.IntelSeries2PlusDatasheet(); return true },
		)
	default:
		return fmt.Errorf("unknown device %q", name)
	}
}
