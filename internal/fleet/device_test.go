package fleet

import (
	"reflect"
	"testing"

	"mobilestorage/internal/array"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

func TestSelectDevice(t *testing.T) {
	cases := []struct {
		name, source string
		kind         core.StorageKind
		wantErr      bool
	}{
		{"cu140", "", core.MagneticDisk, false},
		{"cu140", "measured", core.MagneticDisk, false},
		{"cu140", "datasheet", core.MagneticDisk, false},
		{"kh", "datasheet", core.MagneticDisk, false},
		{"kh", "measured", 0, true}, // no measured kh numbers exist
		{"sdp10", "", core.FlashDisk, false},
		{"sdp5", "datasheet", core.FlashDisk, false},
		{"sdp5", "measured", 0, true},
		{"sdp5a", "", core.FlashDisk, false},
		{"sdp5a", "datasheet", core.FlashDisk, false},
		{"sdp5a", "measured", 0, true}, // the SDP5A is the SDP5: datasheet only
		{"intel", "", core.FlashCard, false},
		{"intel2+", "datasheet", core.FlashCard, false},
		{"intel2+", "measured", 0, true},
		{"floppy", "", 0, true},
		{"cu140", "vibes", 0, true},
	}
	for _, c := range cases {
		var cfg core.Config
		err := SelectDevice(&cfg, c.name, c.source)
		if c.wantErr {
			if err == nil {
				t.Errorf("SelectDevice(%q, %q) accepted", c.name, c.source)
			}
			continue
		}
		if err != nil {
			t.Errorf("SelectDevice(%q, %q): %v", c.name, c.source, err)
			continue
		}
		if cfg.Kind != c.kind {
			t.Errorf("SelectDevice(%q): kind %v, want %v", c.name, cfg.Kind, c.kind)
		}
		if cfg.AsyncErase != (c.name == "sdp5a") {
			t.Errorf("SelectDevice(%q): AsyncErase %v", c.name, cfg.AsyncErase)
		}
	}

	// The SDP5A differs from the SDP5 only in asynchronous erasure (§5.3).
	var sdp5, sdp5a core.Config
	if err := SelectDevice(&sdp5, "sdp5", ""); err != nil {
		t.Fatal(err)
	}
	if err := SelectDevice(&sdp5a, "sdp5a", ""); err != nil {
		t.Fatal(err)
	}
	if sdp5a.FlashDiskParams != device.SDP5Datasheet() {
		t.Errorf("sdp5a params %+v, want the SDP5 datasheet", sdp5a.FlashDiskParams)
	}
	sdp5.AsyncErase = true
	if !reflect.DeepEqual(sdp5, sdp5a) {
		t.Errorf("sdp5a config %+v, want sdp5 with AsyncErase %+v", sdp5a, sdp5)
	}
}

// TestSizeBuffers covers the negative-size defaults the CLI and the job
// grid share: no SRAM in front of an array even though its zero Kind reads
// as a disk.
func TestSizeBuffers(t *testing.T) {
	spec, err := array.ParseSpec("mirror:2xflashcard")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg            core.Config
		dramKB, sramKB int64
		dram, sram     units.Bytes
	}{
		{core.Config{Trace: &trace.Trace{Name: "mac"}, Kind: core.MagneticDisk}, -1, -1, 2 * units.MB, DefaultSRAM},
		{core.Config{Trace: &trace.Trace{Name: "hp"}, Kind: core.FlashCard}, -1, -1, 0, 0},
		{core.Config{Trace: &trace.Trace{Name: "synth"}, Array: spec}, -1, -1, 2 * units.MB, 0},
		{core.Config{Trace: &trace.Trace{Name: "hp"}, Kind: core.FlashDisk}, 64, 16, 64 * units.KB, 16 * units.KB},
	} {
		cfg := c.cfg
		SizeBuffers(&cfg, c.dramKB, c.sramKB)
		if cfg.DRAMBytes != c.dram || cfg.SRAMBytes != c.sram {
			t.Errorf("%s kind %v array %v (%d, %d KB): DRAM %v SRAM %v, want %v %v", cfg.Trace.Name, cfg.Kind,
				cfg.Array != nil, c.dramKB, c.sramKB, cfg.DRAMBytes, cfg.SRAMBytes, c.dram, c.sram)
		}
	}
}
