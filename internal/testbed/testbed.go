// Package testbed emulates the paper's hardware measurement platform (§3):
// an HP OmniBook 300 (25 MHz 386SXLV, MS-DOS 5.0) driving one of the three
// storage devices through the DOS file system, optionally through a
// compression layer (DoubleSpace on the CU140, Stacker on the SDP10, and
// MFFS's built-in compression on the Intel card).
//
// The testbed reproduces the micro-benchmarks behind Table 1, Figure 1, and
// Figure 3, and replays the synth trace for the §5.1 simulator validation.
// Device service times come from the same parameter catalog the simulator
// uses; the DOS software-path constants are fits to Table 1.
package testbed

import (
	"fmt"
	"sort"

	"mobilestorage/internal/compress"
	"mobilestorage/internal/device"
	"mobilestorage/internal/disk"
	"mobilestorage/internal/flashcard"
	"mobilestorage/internal/flashdisk"
	"mobilestorage/internal/mffs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// DOS software-path constants on the 25 MHz OmniBook, fit to Table 1.
const (
	// syscallOverhead is charged per read/write call.
	syscallOverhead = 2200 * units.Microsecond
	// fileOpenOverhead is charged when switching to a different file.
	fileOpenOverhead = 3500 * units.Microsecond
	// fileCreateOverhead is charged when a file is first written.
	// Compressed volumes (DoubleSpace/Stacker) preallocate the host file,
	// so creation inside them costs a quarter of a FAT create.
	fileCreateOverhead = 19 * units.Millisecond
)

// StorageKind selects the device under test.
type StorageKind uint8

// The three devices measured in §3.
const (
	CU140 StorageKind = iota
	SDP10
	IntelCard
)

// String names the device under test.
func (k StorageKind) String() string {
	switch k {
	case CU140:
		return "cu140"
	case SDP10:
		return "sdp10"
	case IntelCard:
		return "intel"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Config describes one testbed setup.
type Config struct {
	Kind StorageKind
	// Compression enables DoubleSpace (CU140) or Stacker (SDP10).
	// The Intel card always compresses (MFFS 2.00).
	Compression bool
	// Data is the benchmark payload (Random or MobyDick).
	Data compress.Data
	// CardCapacity sizes the Intel card (default 10 MB, the measured part).
	CardCapacity units.Bytes
	// MFFS overrides the MFFS model (default mffs.New(); mffs.Fixed() for
	// the repaired-MFFS ablation).
	MFFS *mffs.Model
}

// fileState tracks one benchmark file.
type fileState struct {
	base    units.Bytes // device address of the file's extent
	extent  units.Bytes // extent size
	cursor  units.Bytes // next append position within the extent
	created bool
	mf      mffs.File
}

// Testbed is an OmniBook emulation driving one device.
type Testbed struct {
	cfg   Config
	clock units.Time

	dev device.Device
	// card is dev when the Intel card is under test, else nil: Prefill,
	// the delete path and Card reach it directly.
	card  *flashcard.Card
	comp  *compress.Model
	model mffs.Model

	files    map[uint32]*fileState
	nextAddr units.Bytes
	lastFile uint32
	hasLast  bool

	// DoubleSpace/Stacker write batching.
	batch units.Bytes
}

// New builds a testbed. The Intel card starts completely erased, matching
// the paper's procedure ("The Intel flash card was completely erased prior
// to each benchmark").
func New(cfg Config) (*Testbed, error) {
	t := &Testbed{cfg: cfg, files: make(map[uint32]*fileState)}
	var err error
	switch cfg.Kind {
	case CU140:
		// The disk is continuously accessed during the benchmarks, so it
		// never spins down (Figure 1 caption).
		t.dev, err = disk.New(device.CU140Datasheet(), disk.WithSpinDown(0))
		if cfg.Compression {
			m := compress.DoubleSpace()
			t.comp = &m
		}
	case SDP10:
		t.dev, err = flashdisk.New(device.SDP10Datasheet(), 10*units.MB)
		if cfg.Compression {
			m := compress.Stacker()
			t.comp = &m
		}
	case IntelCard:
		capacity := cfg.CardCapacity
		if capacity == 0 {
			capacity = 10 * units.MB
		}
		t.card, err = flashcard.New(device.IntelSeries2Datasheet(), capacity, 512*units.B)
		t.dev = t.card
		if cfg.MFFS != nil {
			t.model = *cfg.MFFS
		} else {
			t.model = mffs.New()
		}
	default:
		return nil, fmt.Errorf("testbed: unknown device kind %d", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Clock returns the current virtual time.
func (t *Testbed) Clock() units.Time { return t.clock }

// Preload materializes files on the device without charging time or
// energy, modeling a dataset that exists before a trace replay begins (the
// paper preloads the 6 MB synth dataset before running it, §5.1). sizes
// maps file IDs to their full sizes; files are placed in ID order so the
// flash card's Prefill covers exactly their extents.
func (t *Testbed) Preload(sizes map[uint32]units.Bytes) error {
	if t.nextAddr != 0 {
		return fmt.Errorf("testbed: Preload after I/O")
	}
	ids := make([]uint32, 0, len(sizes))
	for id := range sizes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := t.alloc(id, sizes[id])
		f.created = true
		if t.cfg.Kind == IntelCard {
			// The preloaded data is already compressed on the card.
			var mf mffs.File
			t.model.WriteCost(&mf, sizes[id], t.cfg.Data)
			f.mf = mf
		}
	}
	if t.card != nil {
		return t.card.Prefill(t.nextAddr)
	}
	return nil
}

// alloc places a file of the given maximum size.
func (t *Testbed) alloc(id uint32, size units.Bytes) *fileState {
	f, ok := t.files[id]
	if ok {
		return f
	}
	f = &fileState{base: t.nextAddr, extent: size}
	t.nextAddr += size
	t.files[id] = f
	return f
}

// Write appends size logical bytes to the file, returning the operation's
// latency. maxSize is the file's eventual size (extent allocation).
func (t *Testbed) Write(id uint32, maxSize, size units.Bytes) units.Time {
	f := t.alloc(id, maxSize)
	start := t.clock
	lat := t.softwareOverhead(id)
	if !f.created {
		if t.comp != nil {
			lat += fileCreateOverhead / 4
		} else {
			lat += fileCreateOverhead
		}
		f.created = true
	}

	switch t.cfg.Kind {
	case IntelCard:
		deviceBytes, software := t.model.WriteCost(&f.mf, size, t.cfg.Data)
		lat += software
		lat += t.deviceWrite(f, deviceBytes, id, start+lat)
	default:
		payload := size
		if t.comp != nil {
			payload = t.comp.CompressedSize(size, t.cfg.Data)
			lat += t.comp.CPUTime(size, t.cfg.Data)
			// DoubleSpace/Stacker batch small compressed writes and push
			// them to the device in bulk (Table 1: compressed small writes
			// beat the device's raw speed).
			t.batch += payload
			if t.batch >= t.comp.BatchBytes {
				lat += t.deviceWrite(f, t.batch, id, start+lat)
				t.batch = 0
			}
		} else {
			lat += t.deviceWrite(f, payload, id, start+lat)
		}
	}
	t.clock = start + lat
	return lat
}

// Read reads size logical bytes at the given offset, returning the latency.
func (t *Testbed) Read(id uint32, offset, size units.Bytes) units.Time {
	f, ok := t.files[id]
	if !ok {
		panic(fmt.Sprintf("testbed: read of unwritten file %d", id))
	}
	start := t.clock
	lat := t.softwareOverhead(id)

	switch t.cfg.Kind {
	case IntelCard:
		deviceBytes, software := t.model.ReadCost(offset, size, t.cfg.Data)
		lat += software
		lat += t.deviceRead(f, offset, deviceBytes, id, start+lat)
	default:
		payload := size
		if t.comp != nil {
			payload = t.comp.CompressedSize(size, t.cfg.Data)
			lat += t.comp.CPUTime(size, t.cfg.Data)
		}
		lat += t.deviceRead(f, offset, payload, id, start+lat)
	}
	t.clock = start + lat
	return lat
}

// Delete removes a file: MFFS state resets and flash blocks invalidate.
func (t *Testbed) Delete(id uint32) {
	f, ok := t.files[id]
	if !ok {
		return
	}
	f.created = false
	f.cursor = 0
	f.mf.Reset()
	if t.card != nil {
		t.card.Access(device.Request{Time: t.clock, Op: trace.Delete, File: id, Addr: f.base, Size: f.extent})
	}
	t.hasLast = false
}

// Idle advances the virtual clock without I/O, letting background work
// (flash cleaning) proceed — used when replaying traces with real
// inter-arrival gaps.
func (t *Testbed) Idle(until units.Time) {
	if until <= t.clock {
		return
	}
	t.clock = until
	t.dev.Idle(until)
}

// softwareOverhead charges the DOS per-call cost plus a file switch.
func (t *Testbed) softwareOverhead(id uint32) units.Time {
	lat := syscallOverhead
	if !t.hasLast || t.lastFile != id {
		lat += fileOpenOverhead
	}
	t.lastFile = id
	t.hasLast = true
	return lat
}

// deviceWrite pushes payload bytes at the file's append cursor and returns
// the device time.
func (t *Testbed) deviceWrite(f *fileState, payload units.Bytes, id uint32, at units.Time) units.Time {
	if payload <= 0 {
		return 0
	}
	if payload > f.extent {
		payload = f.extent
	}
	addr := f.base + f.cursor
	if f.cursor+payload > f.extent {
		addr = f.base
		f.cursor = 0
	}
	f.cursor += payload
	req := device.Request{Time: at, Op: trace.Write, File: id, Addr: addr, Size: payload}
	return t.access(req) - at
}

// deviceRead fetches payload bytes and returns the device time.
func (t *Testbed) deviceRead(f *fileState, offset, payload units.Bytes, id uint32, at units.Time) units.Time {
	if payload <= 0 {
		return 0
	}
	addr := f.base + offset%f.extent
	if addr+payload > f.base+f.extent {
		addr = f.base
	}
	req := device.Request{Time: at, Op: trace.Read, File: id, Addr: addr, Size: payload}
	return t.access(req) - at
}

func (t *Testbed) access(req device.Request) units.Time {
	t.dev.Idle(req.Time)
	return t.dev.Access(req)
}
