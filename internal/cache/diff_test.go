package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/units"
)

// streamReader hands out the bytes of a fuzz input one at a time, then
// zeros once it is exhausted.
type streamReader struct {
	data []byte
	pos  int
}

func (r *streamReader) done() bool { return r.pos >= len(r.data) }

func (r *streamReader) next() int {
	if r.done() {
		return 0
	}
	r.pos++
	return int(r.data[r.pos-1])
}

// extent decodes one request: a block from one of three windows (low block
// numbers, far sparse ones and, when nearLimit is set, blocks straddling
// denseBlockLimit), an offset inside it (block-aligned, half a block, or
// any byte), and a size from zero through sub-block and unaligned sizes to
// more blocks than the cache holds.
func (r *streamReader) extent(bs units.Bytes, capBlocks int, nearLimit bool) (addr, size units.Bytes) {
	span := int64(4*capBlocks + 8)
	var block int64
	switch w := r.next(); {
	case w%3 == 1:
		block = 1<<40 + int64(r.next())%span
	case w%3 == 2 && nearLimit:
		block = denseBlockLimit - span/2 + int64(r.next())%span
	default:
		block = int64(r.next()) % span
	}
	addr = units.Bytes(block) * bs
	switch r.next() % 3 {
	case 1:
		addr += bs / 2
	case 2:
		addr += units.Bytes(r.next()) % bs
	}
	switch s := r.next(); s % 4 {
	case 0:
		size = units.Bytes(s/4) % bs // zero or sub-block
	case 1:
		size = units.Bytes(1+s%4) * bs
	case 2:
		size = units.Bytes(1+r.next()%(capBlocks+4))*bs + units.Bytes(r.next())
	case 3:
		size = units.Bytes(capBlocks+1+s%8) * bs // larger than the cache
	}
	return addr, size
}

// sameExtents compares two extent lists element by element; nil and empty
// are the same list.
func sameExtents(a, b []Extent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runDifferential decodes data into a cache geometry and a stream of
// Contains, Insert (clean and dirty), Invalidate, DirtyExtents and Crash
// calls, replays it through Cache and the frozen RefCache, and reports the
// first return value, length or hit/miss count that differs.
func runDifferential(data []byte) error {
	r := &streamReader{data: data}
	bs := []units.Bytes{512, units.KB, 1000}[r.next()%3]
	capBlocks := 1 + r.next()%64
	// Some sizes are not a whole number of blocks; the remainder is unused.
	size := units.Bytes(capBlocks)*bs + units.Bytes(r.next())%bs
	writeBack := r.next()%2 == 1
	// A stream that reaches denseBlockLimit grows the dense index to its
	// full 8 MB, so only one stream in four does.
	nearLimit := r.next()%4 == 0
	c, err := New(device.NECDRAM(), size, bs, writeBack)
	if err != nil {
		return err
	}
	ref, err := NewRef(device.NECDRAM(), size, bs, writeBack, nil)
	if err != nil {
		return err
	}
	geometry := fmt.Sprintf("%d × %v blocks, write-back %v, near the dense limit %v", capBlocks, bs, writeBack, nearLimit)
	for step := 0; !r.done(); step++ {
		op := r.next() % 32
		addr, sz := r.extent(bs, capBlocks, nearLimit)
		var call string
		switch {
		case op < 12:
			call = fmt.Sprintf("Contains(%d, %d)", addr, sz)
			if got, want := c.Contains(addr, sz), ref.Contains(addr, sz); got != want {
				return fmt.Errorf("%s step %d: %s = %v, reference %v", geometry, step, call, got, want)
			}
		case op < 24:
			dirty := op%2 == 1
			call = fmt.Sprintf("Insert(%d, %d, %v)", addr, sz, dirty)
			if got, want := c.Insert(addr, sz, dirty), ref.Insert(addr, sz, dirty); !sameExtents(got, want) {
				return fmt.Errorf("%s step %d: %s evicted %v, reference %v", geometry, step, call, got, want)
			}
		case op < 29:
			call = fmt.Sprintf("Invalidate(%d, %d)", addr, sz)
			c.Invalidate(addr, sz)
			ref.Invalidate(addr, sz)
		case op < 31:
			call = "DirtyExtents()"
			if got, want := c.DirtyExtents(), ref.DirtyExtents(); !sameExtents(got, want) {
				return fmt.Errorf("%s step %d: %s = %v, reference %v", geometry, step, call, got, want)
			}
		default:
			call = "Crash()"
			if got, want := c.Crash(), ref.Crash(); got != want {
				return fmt.Errorf("%s step %d: %s = %d, reference %d", geometry, step, call, got, want)
			}
		}
		if c.Len() != ref.Len() || c.Hits() != ref.Hits() || c.Misses() != ref.Misses() {
			return fmt.Errorf("%s step %d: after %s len/hits/misses %d/%d/%d, reference %d/%d/%d", geometry, step, call,
				c.Len(), c.Hits(), c.Misses(), ref.Len(), ref.Hits(), ref.Misses())
		}
	}
	return nil
}

// TestCacheMatchesReference replays seeded random streams through the slab
// cache and the frozen map-backed RefCache. The simulator runs the slab LRU
// only inside its per-trace filters, and the replay difftest reaches those
// with few cache geometries and block numbers far below denseBlockLimit;
// this test covers small caches, non-power-of-two blocks and the sparse
// index.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		data := make([]byte, 50+rng.Intn(2000))
		rng.Read(data)
		if err := runDifferential(data); err != nil {
			t.Fatalf("stream %d (seed 1): %v", i, err)
		}
	}
}

// FuzzCacheEquivalence explores the same generator coverage-guided.
func FuzzCacheEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(1994))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64<<(i%4))
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runDifferential(data); err != nil {
			t.Fatal(err)
		}
	})
}
