package core

import (
	"fmt"
	"strings"
	"testing"

	"mobilestorage/internal/array"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

func TestBuildStackErrors(t *testing.T) {
	tr := smallTrace()
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"bad disk params", func(c *Config) {
			c.Kind = MagneticDisk
			c.Disk = device.DiskParams{Name: "junk"}
		}, "non-physical"},
		{"bad flashdisk params", func(c *Config) {
			c.Kind = FlashDisk
			c.FlashDiskParams = device.FlashDiskParams{Name: "junk"}
		}, "non-physical"},
		{"bad flashcard params", func(c *Config) {
			c.Kind = FlashCard
			c.FlashCardParams = device.FlashCardParams{Name: "junk"}
		}, "non-physical"},
		{"bad spin policy", func(c *Config) {
			c.Kind = MagneticDisk
			c.Disk = device.CU140Datasheet()
			c.SpinPolicy = "psychic"
		}, "unknown spin policy"},
		{"bad sram size", func(c *Config) {
			c.Kind = MagneticDisk
			c.Disk = device.CU140Datasheet()
			c.SRAMBytes = 1 // below one block
		}, "below one"},
		{"undersized hybrid cache", func(c *Config) {
			c.Kind = FlashCache
			c.Disk = device.CU140Datasheet()
			c.FlashCardParams = device.IntelSeries2Datasheet()
			c.FlashCacheBytes = units.KB
		}, "holds under"},
	}
	for _, c := range cases {
		cfg := Config{Trace: tr}
		c.mut(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestRunInvalidTrace(t *testing.T) {
	bad := &trace.Trace{Name: "bad", BlockSize: units.KB, Records: []trace.Record{
		{Time: 10, Op: trace.Read, Size: units.KB},
		{Time: 5, Op: trace.Read, Size: units.KB}, // out of order
	}}
	_, err := Run(Config{Trace: bad, Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet()})
	if err == nil {
		t.Error("unsorted trace accepted")
	}
}

// TestRunOverflowingOffset replays a record whose offset plus size
// overflows int64, and one whose end overflows only when the layout rounds
// it up to whole blocks, on a disk, a flash card and a flash disk: each run
// must return the validation error instead of panicking in placement.
func TestRunOverflowingOffset(t *testing.T) {
	for _, size := range []units.Bytes{1000, 100} {
		evil := &trace.Trace{Name: "evil", BlockSize: units.KB, Records: []trace.Record{
			{Time: 0, Op: trace.Write, File: 1, Offset: 9223372036854775000, Size: size},
		}}
		for _, cfg := range []Config{
			{Kind: MagneticDisk, Disk: device.CU140Measured(), SRAMBytes: 32 * units.KB},
			{Kind: FlashCard, FlashCardParams: device.IntelSeries2Measured()},
			{Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet()},
		} {
			cfg.Trace = evil
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Errorf("size %d, kind %v: err = %v, want the overflow", size, cfg.Kind, err)
			}
		}
	}
}

func TestDeleteOfUntouchedFile(t *testing.T) {
	// A trace that deletes a file it never read or wrote must be harmless.
	tr := &trace.Trace{Name: "del", BlockSize: units.KB, Records: []trace.Record{
		{Time: 0, Op: trace.Write, File: 1, Size: units.KB},
		{Time: units.Second, Op: trace.Delete, File: 99, Size: units.KB},
		{Time: 2 * units.Second, Op: trace.Read, File: 1, Size: units.KB},
	}}
	res, err := Run(Config{Trace: tr, WarmFraction: -1, Kind: FlashCard,
		FlashCardParams: device.IntelSeries2Datasheet()})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredOps != 2 {
		t.Errorf("measured %d ops, want 2", res.MeasuredOps)
	}
}

func TestObserverSeesEveryOp(t *testing.T) {
	tr := smallTrace()
	var seen int
	var hits int
	cfg := Config{
		Trace: tr, WarmFraction: -1, DRAMBytes: 64 * units.KB,
		Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet(),
		Observer: func(o OpObservation) {
			seen++
			if o.Response < 0 {
				t.Errorf("op %d: negative response", o.Index)
			}
			if o.CacheHit {
				hits++
			}
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seen != res.MeasuredOps {
		t.Errorf("observer saw %d ops, result measured %d", seen, res.MeasuredOps)
	}
	if int64(hits) != res.CacheHits {
		t.Errorf("observer hits %d ≠ result hits %d", hits, res.CacheHits)
	}
}

func TestSRAMOnFlash(t *testing.T) {
	// The §7 extension path: SRAM in front of a flash device builds and
	// absorbs writes.
	tr := smallTrace()
	res, err := Run(Config{
		Trace: tr, Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet(),
		SRAMBytes: 32 * units.KB,
	})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Run(Config{Trace: tr, Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Write.Mean() >= bare.Write.Mean() {
		t.Errorf("SRAM did not improve flash writes: %.2f vs %.2f", res.Write.Mean(), bare.Write.Mean())
	}
	if res.EnergyByComponent["sram"] <= 0 {
		t.Error("no SRAM energy accounted")
	}
}

// TestHostileOffsetRejected replays one-block traces at offsets 2^40 and
// 2^62. Devices size their state from the trace's footprint, so without
// the MaxFootprint bound the first asks a flash disk for tens of gigabytes
// and the second overflows a slice length. Every device kind, on both
// replay loops, must return an error naming the footprint and the bound.
func TestHostileOffsetRejected(t *testing.T) {
	devices := []struct {
		name string
		mut  func(*Config)
	}{
		{"sdp5", func(c *Config) { c.Kind, c.FlashDiskParams = FlashDisk, device.SDP5Datasheet() }},
		{"intel", func(c *Config) { c.Kind, c.FlashCardParams = FlashCard, device.IntelSeries2Datasheet() }},
		{"cu140", func(c *Config) {
			c.Kind, c.Disk, c.SRAMBytes = MagneticDisk, device.CU140Measured(), 32*units.KB
		}},
	}
	for _, off := range []string{"1099511627776", "4611686018427387904"} {
		tr, err := trace.Decode(strings.NewReader("trace evil blocksize=1024\n0 w 1 " + off + " 100\n"))
		if err != nil {
			t.Fatal(err)
		}
		footprint := PrepareTrace(tr).Footprint()
		if footprint <= MaxFootprint {
			t.Fatalf("offset %s: footprint %v within the bound", off, footprint)
		}
		for _, d := range devices {
			for _, ref := range []bool{false, true} {
				cfg := Config{Trace: tr, Reference: ref}
				d.mut(&cfg)
				_, err := Run(cfg)
				if err == nil {
					t.Errorf("%s offset %s (reference %v): accepted", d.name, off, ref)
					continue
				}
				for _, want := range []string{footprint.String(), MaxFootprint.String(), "MaxFootprint"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s offset %s (reference %v): error %q does not mention %q", d.name, off, ref, err, want)
					}
				}
			}
		}
	}
}

// TestFlashCapacityRejected sizes flash devices past MaxCapacity three
// ways: an explicit capacity of 2^40 bytes, 2^40 bytes of stored data (at
// 80% utilization), and a capacity derived exactly at the bound that a
// fault plan's spare segments push past it. Without the bound the first
// two ask for gigabytes of device state. A flash card, a flash disk and
// a mirror of two cards, on both replay loops, must return an error that
// names the bound before any device is built. So must the hybrid with a
// flash cache of 2^33, 2^40 or 2^62 bytes: without the bound the larger
// two die allocating gigabytes, and 2^33, twice the bound, runs.
func TestFlashCapacityRejected(t *testing.T) {
	tr, err := trace.Decode(strings.NewReader("trace small blocksize=1024\n0 w 1 0 1024\n"))
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := array.ParseSpec("mirror:2xflashcard")
	if err != nil {
		t.Fatal(err)
	}
	devices := []struct {
		name string
		mut  func(*Config)
	}{
		{"intel", func(c *Config) { c.Kind, c.FlashCardParams = FlashCard, device.IntelSeries2Datasheet() }},
		{"sdp5", func(c *Config) { c.Kind, c.FlashDiskParams = FlashDisk, device.SDP5Datasheet() }},
		{"mirror:2xflashcard", func(c *Config) { c.Array, c.FlashCardParams = mirror, device.IntelSeries2Datasheet() }},
	}
	sizes := []struct {
		name string
		mut  func(*Config)
	}{
		{"capacity 2^40", func(c *Config) { c.FlashCapacity = 1 << 40 }},
		{"stored 2^40", func(c *Config) { c.StoredData = 1 << 40 }},
		{"spares past the bound", func(c *Config) {
			// 0.8 × 4 GiB, rounded down: the derived capacity rounds up
			// to exactly MaxCapacity, and eight spare segments add 1 MB
			// (an armed plan: spares come with a wear-out threshold).
			c.StoredData, c.FlashUtilization = MaxCapacity*4/5, 0.8
			c.Faults = &fault.Plan{SpareSegments: 8, WearOutAfter: 1 << 60}
		}},
	}
	type row struct {
		name string
		mut  func(*Config)
	}
	var rows []row
	for _, d := range devices {
		for _, sz := range sizes {
			if sz.name == "spares past the bound" && d.name != "intel" {
				continue // only the card provisions spare segments
			}
			rows = append(rows, row{d.name + ", " + sz.name, func(c *Config) { d.mut(c); sz.mut(c) }})
		}
	}
	for _, exp := range []int{33, 40, 62} {
		rows = append(rows, row{fmt.Sprintf("hybrid, cache 2^%d", exp), func(c *Config) {
			c.Kind, c.Disk, c.FlashCardParams = FlashCache, device.CU140Datasheet(), device.IntelSeries2Datasheet()
			c.FlashCacheBytes = 1 << exp
		}})
	}
	for _, r := range rows {
		for _, ref := range []bool{false, true} {
			cfg := Config{Trace: tr, Reference: ref}
			r.mut(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Errorf("%s (reference %v): accepted", r.name, ref)
				continue
			}
			for _, want := range []string{MaxCapacity.String(), "MaxCapacity"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s (reference %v): error %q does not mention %q", r.name, ref, err, want)
				}
			}
		}
	}
}
