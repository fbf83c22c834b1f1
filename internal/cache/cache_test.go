package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mobilestorage/internal/device"
	"mobilestorage/internal/units"
)

func newCache(t *testing.T, size units.Bytes, writeBack bool) *Cache {
	t.Helper()
	c, err := New(device.NECDRAM(), size, units.KB, writeBack)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContainsAfterInsert(t *testing.T) {
	c := newCache(t, 8*units.KB, false)
	if c.Contains(0, units.KB) {
		t.Error("empty cache claims a hit")
	}
	c.Insert(0, 4*units.KB, false)
	if !c.Contains(0, 4*units.KB) {
		t.Error("inserted range missing")
	}
	if !c.Contains(units.KB, units.KB) {
		t.Error("sub-range missing")
	}
	if c.Contains(0, 5*units.KB) {
		t.Error("partially-cached range reported as full hit")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(t, 4*units.KB, false) // 4 blocks
	c.Insert(0, 4*units.KB, false)      // blocks 0-3
	c.Contains(0, units.KB)             // touch block 0: MRU
	c.Insert(8*units.KB, units.KB, false)
	// Block 1 was LRU, so it is gone; block 0 survives.
	if !c.Contains(0, units.KB) {
		t.Error("recently used block evicted")
	}
	if c.Contains(units.KB, units.KB) {
		t.Error("LRU block not evicted")
	}
	if c.used != 4 {
		t.Errorf("%d cached blocks, want 4", c.used)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := newCache(t, 2*units.KB, false)
	// Even with dirty=true requested, write-through mode holds nothing back.
	if ev := c.Insert(0, 4*units.KB, true); len(ev) != 0 {
		t.Errorf("write-through produced dirty evictions: %v", ev)
	}
	if d := c.DirtyExtents(); len(d) != 0 {
		t.Errorf("write-through has dirty extents: %v", d)
	}
}

func TestWriteBackEvictions(t *testing.T) {
	c := newCache(t, 2*units.KB, true)
	c.Insert(0, 2*units.KB, true)
	ev := c.Insert(4*units.KB, 2*units.KB, false)
	if len(ev) == 0 {
		t.Fatal("no dirty evictions when dirty blocks were displaced")
	}
	var total units.Bytes
	for _, e := range ev {
		total += e.Size
	}
	if total != 2*units.KB {
		t.Errorf("evicted %v dirty bytes, want 2KB", total)
	}
}

func TestDirtyExtentsCoalesced(t *testing.T) {
	c := newCache(t, 8*units.KB, true)
	c.Insert(0, 3*units.KB, true)
	d := c.DirtyExtents()
	if len(d) != 1 || d[0].Addr != 0 || d[0].Size != 3*units.KB {
		t.Errorf("dirty extents = %v, want one 3KB extent at 0", d)
	}
	// Second call: already clean.
	if d := c.DirtyExtents(); len(d) != 0 {
		t.Errorf("second DirtyExtents = %v", d)
	}
}

func TestInvalidate(t *testing.T) {
	c := newCache(t, 8*units.KB, true)
	c.Insert(0, 4*units.KB, true)
	c.Invalidate(0, 2*units.KB)
	if c.Contains(0, units.KB) {
		t.Error("invalidated block still cached")
	}
	if !c.Contains(2*units.KB, 2*units.KB) {
		t.Error("surviving blocks lost")
	}
	// Invalidated dirty data must not come back out.
	for _, e := range c.DirtyExtents() {
		if e.Addr < 2*units.KB {
			t.Errorf("invalidated dirty extent emitted: %+v", e)
		}
	}
}

func TestAccessTimeAndEnergy(t *testing.T) {
	c := newCache(t, 8*units.KB, false)
	d := c.AccessTime(units.KB)
	if d <= 0 {
		t.Error("access time not positive")
	}
	if c.Meter().TotalJ() <= 0 {
		t.Error("no active energy charged")
	}
	before := c.Meter().TotalJ()
	c.AccrueStandby(units.Hour)
	if c.Meter().TotalJ() <= before {
		t.Error("no standby energy accrued")
	}
	// Standby accrual is monotonic in time and idempotent at the same time.
	at := c.Meter().TotalJ()
	c.AccrueStandby(units.Hour)
	if c.Meter().TotalJ() != at {
		t.Error("standby accrued twice for the same instant")
	}
}

func TestConstructionErrors(t *testing.T) {
	if _, err := New(device.NECDRAM(), 100, units.KB, false); err == nil {
		t.Error("sub-block cache accepted")
	}
	if _, err := New(device.NECDRAM(), units.KB, 0, false); err == nil {
		t.Error("zero block size accepted")
	}
}

// TestCacheNeverExceedsCapacity: under random traffic, Len() ≤ capacity and
// every reported hit is truthful (the block was inserted and not evicted or
// invalidated since — verified via a shadow map + LRU order check is too
// strict, so we check capacity and hit consistency only).
func TestCacheNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const capBlocks = 16
		c, err := New(device.NECDRAM(), capBlocks*units.KB, units.KB, rng.Intn(2) == 0)
		if err != nil {
			return false
		}
		inCache := map[int64]bool{} // superset tracking: false = definitely absent
		for i := 0; i < 500; i++ {
			blk := int64(rng.Intn(64))
			addr := units.Bytes(blk) * units.KB
			switch rng.Intn(3) {
			case 0:
				c.Insert(addr, units.KB, rng.Intn(2) == 0)
				inCache[blk] = true
			case 1:
				c.Invalidate(addr, units.KB)
				inCache[blk] = false
			case 2:
				if c.Contains(addr, units.KB) && !inCache[blk] {
					return false // hit on a block never inserted / invalidated
				}
			}
			if c.used > capBlocks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWriteBackConservation: every dirty byte inserted is either evicted,
// invalidated, or still present at the end — no dirty data is silently lost.
func TestWriteBackConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(device.NECDRAM(), 8*units.KB, units.KB, true)
		if err != nil {
			return false
		}
		dirty := map[int64]bool{} // blocks that should be dirty somewhere
		// note marks evicted dirty blocks as flushed: their dirty bytes
		// reached the device, so they are no longer owed by the cache.
		note := func(extents []Extent) {
			for _, e := range extents {
				for b := int64(e.Addr / units.KB); b < int64((e.Addr+e.Size)/units.KB); b++ {
					delete(dirty, b)
				}
			}
		}
		for i := 0; i < 300; i++ {
			blk := int64(rng.Intn(32))
			addr := units.Bytes(blk) * units.KB
			switch rng.Intn(3) {
			case 0:
				ev := c.Insert(addr, units.KB, true)
				dirty[blk] = true
				note(ev)
			case 1:
				ev := c.Insert(addr, units.KB, false)
				note(ev)
			case 2:
				c.Invalidate(addr, units.KB)
				delete(dirty, blk)
			}
		}
		// Whatever remains dirty must come out of the final flush.
		final := map[int64]bool{}
		for _, e := range c.DirtyExtents() {
			for b := int64(e.Addr / units.KB); b < int64((e.Addr+e.Size)/units.KB); b++ {
				final[b] = true
			}
		}
		for b := range dirty {
			if !final[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
