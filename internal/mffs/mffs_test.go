package mffs

import (
	"testing"

	"mobilestorage/internal/compress"
	"mobilestorage/internal/units"
)

func TestWriteCostGrowsWithFileSize(t *testing.T) {
	m := New()
	var f File
	var prev units.Bytes
	// The Figure 1 anomaly: the device bytes per 4 KB write grow
	// monotonically as the file grows.
	for i := 0; i < 16; i++ {
		deviceBytes, software := m.WriteCost(&f, 4*units.KB, compress.MobyDick)
		if software < m.WriteOverhead {
			t.Fatal("software cost below fixed overhead")
		}
		if i > 0 && deviceBytes <= prev {
			t.Fatalf("write %d device bytes %v not above previous %v", i, deviceBytes, prev)
		}
		prev = deviceBytes
	}
	// The growth is linear: byte cost at 512 KB written ≈ base + 10% of it.
	want := 2*units.KB + units.Bytes(float64(f.written)*m.RewriteFraction)
	deviceBytes, _ := m.WriteCost(&f, 4*units.KB, compress.MobyDick)
	if diff := deviceBytes - want; diff < -units.KB || diff > units.KB {
		t.Errorf("device bytes %v, want ≈%v", deviceBytes, want)
	}
}

func TestReadCostGrowsWithOffset(t *testing.T) {
	m := New()
	_, near := m.ReadCost(0, 4*units.KB, compress.MobyDick)
	_, far := m.ReadCost(units.MB, 4*units.KB, compress.MobyDick)
	if far <= near {
		t.Errorf("far read %v not above near read %v", far, near)
	}
	// The linked-list walk dominates large offsets: 1 MB at 200 µs/KB ≈ 205 ms.
	if far < 200*units.Millisecond {
		t.Errorf("far read %v, want ≥ 200ms of scanning", far)
	}
}

func TestFixedModelRemovesAnomalies(t *testing.T) {
	m := Fixed()
	var f File
	first, _ := m.WriteCost(&f, 4*units.KB, compress.MobyDick)
	for i := 0; i < 100; i++ {
		m.WriteCost(&f, 4*units.KB, compress.MobyDick)
	}
	last, _ := m.WriteCost(&f, 4*units.KB, compress.MobyDick)
	if last != first {
		t.Errorf("fixed MFFS write grew: %v → %v", first, last)
	}
	_, near := m.ReadCost(0, 4*units.KB, compress.MobyDick)
	_, far := m.ReadCost(units.MB, 4*units.KB, compress.MobyDick)
	if far != near {
		t.Errorf("fixed MFFS read grew with offset: %v vs %v", near, far)
	}
}

func TestFileReset(t *testing.T) {
	m := New()
	var f File
	m.WriteCost(&f, 32*units.KB, compress.MobyDick)
	if f.written == 0 {
		t.Fatal("file state not updated")
	}
	f.Reset()
	if f.written != 0 {
		t.Error("reset did not clear state")
	}
}

func TestCompressionApplied(t *testing.T) {
	m := New()
	var f File
	deviceBytes, _ := m.WriteCost(&f, 4*units.KB, compress.MobyDick)
	if deviceBytes != 2*units.KB {
		t.Errorf("compressible write wrote %v to the device, want 2KB", deviceBytes)
	}
	var g File
	deviceBytes, _ = m.WriteCost(&g, 4*units.KB, compress.Random)
	if deviceBytes != 4*units.KB {
		t.Errorf("random write wrote %v, want 4KB", deviceBytes)
	}
}
