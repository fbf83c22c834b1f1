package core

import (
	"strings"
	"testing"

	"mobilestorage/internal/device"
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
