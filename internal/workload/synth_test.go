package workload

import (
	"math"
	"reflect"
	"testing"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

func TestSynthSpec(t *testing.T) {
	tr, err := Synth(SynthConfig{Seed: 1, Ops: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.BlockSize != 512 {
		t.Errorf("block size %v, want 512B", tr.BlockSize)
	}

	var reads, writes, deletes int
	var small, mid, large int
	hotAccesses := 0
	const numFiles = 192 // 6 MB of 32 KB files
	const hotFiles = numFiles / 8
	fullAfterErase := true
	erased := map[uint32]bool{}

	for _, r := range tr.Records {
		if int(r.File) >= numFiles {
			t.Fatalf("file %d outside the 6 MB dataset", r.File)
		}
		if int(r.File) < hotFiles {
			hotAccesses++
		}
		switch r.Op {
		case trace.Delete:
			deletes++
			erased[r.File] = true
		case trace.Write:
			writes++
			if erased[r.File] {
				// §4.1: the next write to an erased file writes the whole
				// 32 KB unit.
				if r.Offset != 0 || r.Size != 32*units.KB {
					fullAfterErase = false
				}
				delete(erased, r.File)
			}
			fallthrough
		case trace.Read:
			if r.Op == trace.Read {
				reads++
			}
			if r.End() > 32*units.KB {
				t.Fatalf("access beyond the 32 KB file: %+v", r)
			}
			switch {
			case r.Size == 512:
				small++
			case r.Size <= 16*units.KB:
				mid++
			default:
				large++
			}
		}
	}
	total := float64(reads + writes + deletes)

	// Op mix: 60% reads, 35% writes, 5% erases. Erase slots that hit
	// already-erased or erased-file accesses become recreating writes, so
	// allow a few percent of drift.
	if f := float64(reads) / total; math.Abs(f-0.60) > 0.04 {
		t.Errorf("read fraction %.3f, want ≈0.60", f)
	}
	if f := float64(writes) / total; math.Abs(f-0.35) > 0.05 {
		t.Errorf("write fraction %.3f, want ≈0.35", f)
	}
	if f := float64(deletes) / total; math.Abs(f-0.05) > 0.02 {
		t.Errorf("delete fraction %.3f, want ≈0.05", f)
	}

	// Hot-and-cold: 7/8 of accesses to 1/8 of the data.
	if f := float64(hotAccesses) / total; math.Abs(f-0.875) > 0.02 {
		t.Errorf("hot access fraction %.3f, want ≈0.875", f)
	}

	// Size mix: 40% half-KB, 40% (0.5 KB, 16 KB], 20% (16 KB, 32 KB] —
	// full-file rewrites after erases inflate the large bucket slightly.
	sized := float64(small + mid + large)
	if f := float64(small) / sized; math.Abs(f-0.40) > 0.05 {
		t.Errorf("small fraction %.3f, want ≈0.40", f)
	}
	if f := float64(mid) / sized; math.Abs(f-0.40) > 0.05 {
		t.Errorf("mid fraction %.3f, want ≈0.40", f)
	}
	if f := float64(large) / sized; math.Abs(f-0.20) > 0.08 {
		t.Errorf("large fraction %.3f, want ≈0.20", f)
	}

	if !fullAfterErase {
		t.Error("write after erase did not rewrite the whole 32 KB unit")
	}

	// Inter-arrival: bimodal, 90% uniform mean 10 ms + 10% of 20 ms + exp(3 s)
	// gives an overall mean of 0.9×0.010 + 0.1×3.020 ≈ 0.311 s.
	c := trace.Characterize(tr, 0)
	if got := c.InterArrival.Mean(); math.Abs(got-0.311)/0.311 > 0.10 {
		t.Errorf("inter-arrival mean %.3f, want ≈0.311", got)
	}
}

func TestSynthDeterminism(t *testing.T) {
	a, _ := Synth(SynthConfig{Seed: 5, Ops: 1000})
	b, _ := Synth(SynthConfig{Seed: 5, Ops: 1000})
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Error("synth not deterministic")
	}
}

// Synth refuses an op count past MaxSynthOps before it sizes the records:
// at math.MaxInt the one allocation could not even be made.
func TestSynthOpsBound(t *testing.T) {
	for _, ops := range []int{MaxSynthOps + 1, math.MaxInt} {
		if tr, err := Synth(SynthConfig{Seed: 1, Ops: ops}); err == nil {
			t.Errorf("ops %d: accepted, %d records", ops, len(tr.Records))
		}
	}
}

func TestSynthDefaults(t *testing.T) {
	tr, err := Synth(SynthConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One record per op, in a slice sized once.
	if len(tr.Records) != DefaultSynthOps || cap(tr.Records) != DefaultSynthOps {
		t.Errorf("default ops: %d records in a slice of cap %d, want %d in %d",
			len(tr.Records), cap(tr.Records), DefaultSynthOps, DefaultSynthOps)
	}
	// Footprint fits the 10 MB flash devices (the whole point of synth).
	sizes := tr.MaxFileSizes()
	var total units.Bytes
	for _, s := range sizes {
		total += s
	}
	if total > 6*units.MB {
		t.Errorf("synth dataset %v exceeds 6 MB", total)
	}
}

func TestSynthTooSmall(t *testing.T) {
	if _, err := Synth(SynthConfig{Seed: 1, DataMB: 0}); err != nil {
		t.Errorf("default DataMB failed: %v", err)
	}
	cfg := SynthConfig{Seed: 1, Ops: 10}
	cfg.DataMB = -1
	if _, err := Synth(cfg); err != nil {
		t.Errorf("negative DataMB should default, got %v", err)
	}
}
