package core

import (
	"testing"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// TestFootprintZeroLength covers the degenerate traces: no records at all,
// and a delete-only stream (legal zero-size records) that never places
// anything.
func TestFootprintZeroLength(t *testing.T) {
	empty := &trace.Trace{Name: "empty", BlockSize: 512 * units.B}
	if got := PrepareTrace(empty).Footprint(); got != 0 {
		t.Errorf("empty trace footprint = %v, want 0", got)
	}
	delOnly := &trace.Trace{
		Name:      "del-only",
		BlockSize: 512 * units.B,
		Records: []trace.Record{
			{Time: 0, Op: trace.Delete, File: 1},
			{Time: units.Second, Op: trace.Delete, File: 2},
		},
	}
	if got := PrepareTrace(delOnly).Footprint(); got != 0 {
		t.Errorf("delete-only trace footprint = %v, want 0", got)
	}
}

// TestFootprintOverlappingWrites pins that overlapping accesses to the same
// file count the file's maximum extent once, not per access: the footprint
// is the block-rounded union of per-file extents.
func TestFootprintOverlappingWrites(t *testing.T) {
	const bs = 512 * units.B
	tr := &trace.Trace{
		Name:      "overlap",
		BlockSize: bs,
		Records: []trace.Record{
			{Time: 0, Op: trace.Write, File: 1, Offset: 0, Size: 1024 * units.B},
			{Time: 1, Op: trace.Write, File: 1, Offset: 512 * units.B, Size: 1024 * units.B},
			{Time: 2, Op: trace.Read, File: 1, Offset: 256 * units.B, Size: 512 * units.B},
			{Time: 3, Op: trace.Write, File: 2, Offset: 0, Size: 512 * units.B},
		},
	}
	// File 1 spans [0, 1536) across its overlapping accesses; file 2 adds
	// one block: 1536 + 512 = 2048 bytes.
	if got := PrepareTrace(tr).Footprint(); got != 2048*units.B {
		t.Errorf("overlapping footprint = %v, want 2048", got)
	}
}

// TestFootprintDeleteRecreate pins that the footprint is the maximum
// CONCURRENT placement, not cumulative bytes written: space freed by a
// delete is reused by later files.
func TestFootprintDeleteRecreate(t *testing.T) {
	const bs = 512 * units.B
	tr := &trace.Trace{
		Name:      "churn",
		BlockSize: bs,
		Records: []trace.Record{
			{Time: 0, Op: trace.Write, File: 1, Offset: 0, Size: 2048 * units.B},
			{Time: 1, Op: trace.Delete, File: 1},
			{Time: 2, Op: trace.Write, File: 2, Offset: 0, Size: 2048 * units.B},
			{Time: 3, Op: trace.Delete, File: 2},
			{Time: 4, Op: trace.Write, File: 3, Offset: 0, Size: 2048 * units.B},
		},
	}
	if got := PrepareTrace(tr).Footprint(); got != 2048*units.B {
		t.Errorf("churn footprint = %v, want 2048 (freed space must be reused)", got)
	}
}
