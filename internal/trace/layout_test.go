package trace

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mobilestorage/internal/units"
)

func TestLayoutPlace(t *testing.T) {
	l := NewLayout(512)
	a := l.Place(1, 0, 1000) // rounds to 1024
	b := l.Place(2, 0, 512)
	if a != 0 {
		t.Errorf("first placement at %d, want 0", a)
	}
	if b != 1024 {
		t.Errorf("second placement at %d, want 1024", b)
	}
	// Re-placing the same file is stable and offset-relative.
	if got := l.Place(1, 512, 1000); got != 512 {
		t.Errorf("Place(1, 512) = %d, want 512", got)
	}
	if l.HighWater() != 1536 {
		t.Errorf("HighWater = %d, want 1536", l.HighWater())
	}
}

func TestLayoutDeleteReuse(t *testing.T) {
	l := NewLayout(512)
	l.Place(1, 0, 1024)
	l.Place(2, 0, 1024)
	l.Delete(1)
	// A new file of the same size reuses the freed extent (first fit).
	if got := l.Place(3, 0, 1024); got != 0 {
		t.Errorf("reuse placement at %d, want 0", got)
	}
	if l.HighWater() != 2048 {
		t.Errorf("HighWater grew to %d after reuse", l.HighWater())
	}
	// Deleting an unknown file is a no-op.
	l.Delete(99)
}

func TestLayoutExtentDeleteRecreate(t *testing.T) {
	l := NewLayout(512)
	l.Place(1, 0, 2048)
	off, size, ok := l.Extent(1)
	if !ok || off != 0 || size != 2048 {
		t.Fatalf("Extent(1) = (%d, %d, %v), want (0, 2048, true)", off, size, ok)
	}
	l.Delete(1)
	if _, _, ok := l.Extent(1); ok {
		t.Fatal("Extent(1) still ok after Delete")
	}
	// Re-creating the same file ID allocates afresh: the freed extent is
	// first-fit reused, and Extent reports the new placement.
	l.Place(1, 0, 1024)
	off, size, ok = l.Extent(1)
	if !ok || off != 0 || size != 1024 {
		t.Fatalf("re-created Extent(1) = (%d, %d, %v), want (0, 1024, true)", off, size, ok)
	}
	// The tail of the original extent remains free for another file.
	if got := l.Place(2, 0, 1024); got != 1024 {
		t.Errorf("Place(2) = %d, want 1024 (tail of freed extent)", got)
	}
	if l.HighWater() != 2048 {
		t.Errorf("HighWater = %d, want 2048 (no growth across delete/re-create)", l.HighWater())
	}
}

func TestLayoutExtentUnknownFile(t *testing.T) {
	l := NewLayout(512)
	if _, _, ok := l.Extent(7); ok {
		t.Error("Extent of never-placed file reported ok")
	}
	l.Place(7, 0, 512)
	l.Delete(7)
	l.Delete(7) // double delete is a no-op
	if _, _, ok := l.Extent(7); ok {
		t.Error("Extent ok after double delete")
	}
}

func TestLayoutCoalesce(t *testing.T) {
	l := NewLayout(512)
	l.Place(1, 0, 512)
	l.Place(2, 0, 512)
	l.Place(3, 0, 512)
	// Free the middle then its neighbours; the extents must coalesce so a
	// large allocation fits in the freed space.
	l.Delete(2)
	l.Delete(1)
	l.Delete(3)
	if got := l.Place(4, 0, 1536); got != 0 {
		t.Errorf("coalesced placement at %d, want 0", got)
	}
}

func TestLayoutPanicsBeyondHint(t *testing.T) {
	l := NewLayout(512)
	l.Place(1, 0, 512)
	defer func() {
		if recover() == nil {
			t.Error("access beyond hinted extent did not panic")
		}
	}()
	l.Place(1, 4096, 512)
}

// TestLayoutNoOverlap: under random place/delete sequences, no two live
// extents ever overlap and every extent is block-aligned.
func TestLayoutNoOverlap(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLayout(512)
		live := map[uint32]units.Bytes{} // file → hint
		for i := 0; i < int(steps); i++ {
			file := uint32(rng.Intn(16))
			if rng.Intn(3) == 0 {
				l.Delete(file)
				delete(live, file)
				continue
			}
			hint, ok := live[file]
			if !ok {
				hint = units.Bytes(rng.Intn(8192) + 1)
				live[file] = hint
			}
			l.Place(file, 0, hint)
		}
		// Collect extents and check pairwise disjointness.
		type ext struct{ off, size units.Bytes }
		var exts []ext
		for f := range live {
			off, size, ok := l.Extent(f)
			if !ok {
				return false
			}
			if off%512 != 0 || size%512 != 0 {
				return false
			}
			exts = append(exts, ext{off, size})
		}
		sort.Slice(exts, func(i, j int) bool { return exts[i].off < exts[j].off })
		for i := 1; i < len(exts); i++ {
			if exts[i-1].off+exts[i-1].size > exts[i].off {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCharacterize(t *testing.T) {
	tr := &Trace{
		Name:      "char",
		BlockSize: 512,
		Records: []Record{
			{Time: 0, Op: Write, File: 1, Size: 1024},               // warm (20%→idx 0)
			{Time: 1 * units.Second, Op: Read, File: 1, Size: 512},  // measured
			{Time: 2 * units.Second, Op: Read, File: 1, Size: 1024}, // measured
			{Time: 4 * units.Second, Op: Write, File: 2, Size: 512}, // measured
			{Time: 5 * units.Second, Op: Delete, File: 2, Size: 512},
		},
	}
	c := Characterize(tr, 0.2)
	if c.Records != 4 {
		t.Fatalf("records = %d, want 4", c.Records)
	}
	if c.Deletes != 1 {
		t.Errorf("deletes = %d, want 1", c.Deletes)
	}
	// 2 reads, 1 write in the measured portion.
	if got := c.FractionReads; got < 0.66 || got > 0.67 {
		t.Errorf("fraction reads = %g", got)
	}
	// Reads: (1 + 2) blocks / 2 = 1.5.
	if c.MeanReadBlocks != 1.5 {
		t.Errorf("mean read blocks = %g, want 1.5", c.MeanReadBlocks)
	}
	if c.MeanWriteBlocks != 1 {
		t.Errorf("mean write blocks = %g, want 1", c.MeanWriteBlocks)
	}
	// Distinct: file1 blocks 0,1 + file2 block 0 = 3 × 0.5 KB.
	if c.DistinctKBytes != 1.5 {
		t.Errorf("distinct KB = %g, want 1.5", c.DistinctKBytes)
	}
	if c.Duration != 4*units.Second {
		t.Errorf("duration = %v, want 4s", c.Duration)
	}
	// Inter-arrival gaps 1,2,1 s → mean 4/3.
	if got := c.InterArrival.Mean(); got < 1.33 || got > 1.34 {
		t.Errorf("inter-arrival mean = %g", got)
	}
}

func TestCharacterizeEmpty(t *testing.T) {
	c := Characterize(&Trace{Name: "e", BlockSize: 512}, 0.1)
	if c.Records != 0 || c.DistinctKBytes != 0 {
		t.Errorf("empty characterize = %+v", c)
	}
}
