package core

import (
	"fmt"
	"sync"

	"mobilestorage/internal/cache"
	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// dramFilter is the DRAM buffer cache's decisions over one trace for one
// cache geometry (block capacity, write-back) and power-failure schedule.
// The cache sits above every device and never sees a completion: which
// reads hit, which dirty blocks an insert evicts and what a power failure
// loses depend only on the trace's placements, the geometry and the
// power-failure instants. So the LRU runs once, here, and every run under
// that cache replays the recorded decisions.
type dramFilter struct {
	// hits has bit i set when read record i hits in the cache.
	hits []uint64
	// evicts lists, in record order, the records whose Insert evicted dirty
	// blocks (write-back only) and the coalesced extents it evicted.
	evicts []recordEvictions
	// lost is the dirty block count each power failure before a record
	// loses, in schedule order.
	lost []int
	// tail is the dirty data after the last record: a later power failure
	// loses its tailLost blocks, otherwise it is the final write-back flush.
	tail     []cache.Extent
	tailLost int
}

// recordEvictions is the dirty extents one record's Insert evicted.
type recordEvictions struct {
	rec int
	ext []cache.Extent
}

// filterKey is the cache geometry a filter depends on.
type filterKey struct {
	capBlocks int
	writeBack bool
}

// dramFilter returns the trace's filter for a cache of capBlocks blocks and
// no power failures, building it on first use. Concurrent runs sharing the
// prep build it once; the others wait for it.
func (p *TracePrep) dramFilter(capBlocks int, writeBack bool) *dramFilter {
	key := filterKey{capBlocks: capBlocks, writeBack: writeBack}
	p.filterMu.Lock()
	build, ok := p.filters[key]
	if !ok {
		if p.filters == nil {
			p.filters = make(map[filterKey]func() *dramFilter)
		}
		build = sync.OnceValue(func() *dramFilter { return buildDRAMFilter(p, capBlocks, writeBack, nil) })
		p.filters[key] = build
	}
	p.filterMu.Unlock()
	return build()
}

// buildDRAMFilter replays the trace's cache calls through an LRU exactly as
// the replay loop of runReference issues them: Invalidate for a delete with
// an extent, Contains then Insert on a miss for a read, Insert for a write,
// and Crash at each power failure before a record.
func buildDRAMFilter(p *TracePrep, capBlocks int, writeBack bool, crashes []units.Time) *dramFilter {
	t := p.trace
	c, err := cache.New(device.MemoryParams{}, units.Bytes(capBlocks)*t.BlockSize, t.BlockSize, writeBack)
	if err != nil {
		panic(fmt.Sprintf("core: DRAM filter geometry rejected after the run's cache accepted it: %v", err))
	}
	f := &dramFilter{hits: make([]uint64, (len(t.Records)+63)/64)}
	ci := 0
	for i := range t.Records {
		rec := &t.Records[i]
		for ci < len(crashes) && crashes[ci] <= rec.Time {
			f.lost = append(f.lost, c.Crash())
			ci++
		}
		var ev []cache.Extent
		switch rec.Op {
		case trace.Delete:
			if pl, ok := p.deletions[i]; ok {
				c.Invalidate(pl.off, pl.size)
			}
		case trace.Read:
			if c.Contains(p.placements[i], rec.Size) {
				f.hits[i>>6] |= 1 << (i & 63)
			} else {
				ev = c.Insert(p.placements[i], rec.Size, false)
			}
		case trace.Write:
			ev = c.Insert(p.placements[i], rec.Size, writeBack)
		}
		if len(ev) > 0 {
			f.evicts = append(f.evicts, recordEvictions{rec: i, ext: ev})
		}
	}
	f.tail = c.DirtyExtents()
	for _, e := range f.tail {
		f.tailLost += int(e.Size / t.BlockSize)
	}
	return f
}

// dramRun is one run's DRAM buffer cache. The filter supplies its hits,
// evictions and power-failure losses; the run keeps only the energy meter
// and the hit/miss counters, in a cache.Cache that never inserts and so
// allocates no LRU state.
type dramRun struct {
	mem *cache.Cache
	f   *dramFilter
	// nextEvict is the first evicts entry not yet taken.
	nextEvict int
	// crashes counts power failures so far; tailCrashed is set once one
	// after the last record has emptied the cache.
	crashes     int
	tailCrashed bool
}

// hit reports whether read record i hits, counting the lookup.
func (d *dramRun) hit(i int) bool {
	hit := d.f.hits[i>>6]&(1<<(i&63)) != 0
	d.mem.CountLookup(hit)
	return hit
}

// evicted returns the dirty extents record i's Insert evicts. Records
// call it in trace order.
func (d *dramRun) evicted(i int) []cache.Extent {
	if d.nextEvict < len(d.f.evicts) && d.f.evicts[d.nextEvict].rec == i {
		d.nextEvict++
		return d.f.evicts[d.nextEvict-1].ext
	}
	return nil
}

// finalFlush returns the dirty data left at the end of the run.
func (d *dramRun) finalFlush() []cache.Extent {
	if d.tailCrashed {
		return nil
	}
	return d.f.tail
}

// Crash returns the dirty blocks the next power failure loses: the
// recorded count for one before a record, the dirty state after the last
// record for the first one after it, and nothing for any later one.
func (d *dramRun) Crash() int {
	k := d.crashes
	d.crashes++
	switch {
	case k < len(d.f.lost):
		return d.f.lost[k]
	case k == len(d.f.lost):
		d.tailCrashed = true
		return d.f.tailLost
	}
	return 0
}

func (d *dramRun) Meter() *energy.Meter { return d.mem.Meter() }
func (d *dramRun) Hits() int64          { return d.mem.Hits() }
func (d *dramRun) Misses() int64        { return d.mem.Misses() }
