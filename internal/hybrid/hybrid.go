// Package hybrid models the fourth architecture the paper points to in its
// related work (§6): flash memory as a cache for disk blocks, after Marsh,
// Douglis & Krishnan, "Flash Memory File Caching for Mobile Computers"
// (HICSS '94) — by the same authors as the paper itself. A small flash
// card sits between the DRAM buffer cache and the magnetic disk:
//
//   - reads that hit flash are served at flash speed, without touching the
//     disk — so the disk can stay spun down;
//   - writes land in flash and are destaged to the disk in the background,
//     in batches, when the dirty fraction passes a high-water mark (waking
//     the disk at most once per batch);
//   - the flash is managed log-structured like the flash card (it *is* a
//     flashcard.Card), so cleaning and endurance behave as in §5.2.
//
// The result combines disk capacity with flash energy: the disk wakes only
// for cache-miss reads and batched destages.
package hybrid

import (
	"fmt"
	"sort"

	"mobilestorage/internal/device"
	"mobilestorage/internal/disk"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/flashcard"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// dirtyHighWater is the dirty fraction of the flash cache that triggers a
// background destage batch.
const dirtyHighWater = 0.25

// slot tracks one cached disk block's state in the flash cache.
type slot struct {
	diskBlock  int64
	cacheBlock int64
	dirty      bool
	prev, next *slot // LRU list; head = MRU
}

// Cache is a flash-cache-over-disk storage device.
type Cache struct {
	dsk       *disk.Disk
	card      *flashcard.Card
	blockSize units.Bytes
	capBlocks int64

	slots      map[int64]*slot // disk block → slot
	head, tail *slot
	freeCache  []int64 // free cache block indices
	dirtyCount int64

	destageDoneAt units.Time

	// Counters.
	hits, misses  int64
	destageWrites int64
	destages      int64

	// Observability (nil-safe no-ops without a scope).
	sc        *obs.Scope
	evName    string
	cHits     *obs.Counter
	cMisses   *obs.Counter
	cDestages *obs.Counter
}

// Config sizes the hybrid stack.
type Config struct {
	Disk      device.DiskParams
	SpinDown  units.Time
	Card      device.FlashCardParams
	CacheSize units.Bytes
	BlockSize units.Bytes
	// Scope receives metrics and events from the hybrid layer and both
	// underlying devices; nil disables observability.
	Scope *obs.Scope
	// Faults injects transient errors, wear-out, and power failures into
	// both underlying devices; nil disables fault injection.
	Faults *fault.Injector
}

// New builds a hybrid device: a disk with a flash block cache in front.
func New(cfg Config) (*Cache, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("hybrid: block size must be positive")
	}
	capBlocks := int64(cfg.CacheSize / cfg.BlockSize)
	if capBlocks < 8 {
		return nil, fmt.Errorf("hybrid: cache %v holds under 8 blocks", cfg.CacheSize)
	}
	d, err := disk.New(cfg.Disk, disk.WithSpinDown(cfg.SpinDown), disk.WithScope(cfg.Scope),
		disk.WithFaults(cfg.Faults))
	if err != nil {
		return nil, err
	}
	// The flash substrate needs headroom over the cache capacity for its
	// own cleaning (the paper's utilization lesson applied to ourselves):
	// run the cache flash at ~60% utilization so cleaning keeps up with
	// cache churn even under write-heavy workloads.
	flashCapacity := units.CeilDiv(units.Bytes(float64(cfg.CacheSize)/0.60), cfg.Card.SegmentSize) * cfg.Card.SegmentSize
	minCapacity := (4 + units.CeilDiv(cfg.CacheSize, cfg.Card.SegmentSize)) * cfg.Card.SegmentSize
	if flashCapacity < minCapacity {
		flashCapacity = minCapacity
	}
	card, err := flashcard.New(cfg.Card, flashCapacity, cfg.BlockSize, flashcard.WithScope(cfg.Scope),
		flashcard.WithFaults(cfg.Faults))
	if err != nil {
		return nil, err
	}
	c := &Cache{
		dsk:       d,
		card:      card,
		blockSize: cfg.BlockSize,
		capBlocks: capBlocks,
		slots:     make(map[int64]*slot, capBlocks),
		sc:        cfg.Scope,
		cHits:     cfg.Scope.Counter("hybrid.hits"),
		cMisses:   cfg.Scope.Counter("hybrid.misses"),
		cDestages: cfg.Scope.Counter("hybrid.destages"),
	}
	for i := capBlocks - 1; i >= 0; i-- {
		c.freeCache = append(c.freeCache, i)
	}
	c.evName = c.Name()
	return c, nil
}

// Name implements device.Device.
func (c *Cache) Name() string {
	return fmt.Sprintf("%s+flashcache%v(%s)", c.dsk.Name(), c.blockSize*units.Bytes(c.capBlocks), c.card.Params().Name)
}

// Meter implements device.Device, returning the combined energy of the
// disk and the flash cache.
func (c *Cache) Meter() *energy.Meter {
	m := energy.NewMeter()
	c.MeterInto(m)
	return m
}

// MeterInto rebuilds the combined disk+flash energy attribution in dst,
// reusing its storage. The per-tick sampler path uses this with a scratch
// meter so snapshotting allocates nothing; the merge order matches Meter
// exactly, so totals are bit-identical.
func (c *Cache) MeterInto(dst *energy.Meter) {
	dst.Reset()
	dst.Merge(c.dsk.Meter())
	dst.Merge(c.card.Meter())
}

// Disk exposes the underlying disk (spin-up statistics).
func (c *Cache) Disk() *disk.Disk { return c.dsk }

// Card exposes the flash cache substrate (wear statistics).
func (c *Cache) Card() *flashcard.Card { return c.card }

// HitRate returns the flash-cache hit rate over reads.
func (c *Cache) HitRate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// Destages returns the number of destage batches written to the disk.
func (c *Cache) Destages() int64 { return c.destages }

// Idle implements device.Device.
func (c *Cache) Idle(now units.Time) {
	c.dsk.Idle(now)
	c.card.Idle(now)
}

// Finish implements device.Device. Dirty cached data stays in flash — it is
// non-volatile, which is the whole point of the architecture.
func (c *Cache) Finish(now units.Time) {
	c.dsk.Finish(now)
	c.card.Finish(now)
}

// Access implements device.Device.
func (c *Cache) Access(req device.Request) units.Time {
	switch req.Op {
	case trace.Delete:
		c.invalidate(req)
		return req.Time
	case trace.Read:
		return c.read(req)
	case trace.Write:
		return c.write(req)
	default:
		panic(fmt.Sprintf("hybrid: unknown op %v", req.Op))
	}
}

// read serves from flash when every requested block is cached; otherwise
// the disk services the whole request and the blocks are installed into
// flash off the critical path.
func (c *Cache) read(req device.Request) units.Time {
	first, last := c.blockRange(req)
	allCached := true
	for b := first; b <= last; b++ {
		if _, ok := c.slots[b]; !ok {
			allCached = false
			break
		}
	}
	if allCached {
		c.hits++
		c.cHits.Inc()
		var completion units.Time
		for b := first; b <= last; b++ {
			s := c.slots[b]
			c.touch(s)
			completion = c.card.Access(device.Request{
				Time: units.Max(req.Time, completion), Op: trace.Read, File: req.File,
				Addr: units.Bytes(s.cacheBlock) * c.blockSize, Size: c.blockSize,
			})
		}
		return completion
	}
	c.misses++
	c.cMisses.Inc()
	completion := c.dsk.Access(req)
	// Install the blocks into flash at disk-read completion: flash writes
	// off the host's critical path (the host already has the data).
	install := completion
	for b := first; b <= last; b++ {
		install = c.installClean(install, b, req.File)
	}
	return completion
}

// write lands in flash and returns at flash speed; a destage batch is
// scheduled when the dirty share passes the high-water mark.
func (c *Cache) write(req device.Request) units.Time {
	first, last := c.blockRange(req)
	completion := req.Time
	for b := first; b <= last; b++ {
		s, ok := c.slots[b]
		if !ok {
			s = c.allocate(completion, b)
		}
		if !s.dirty {
			s.dirty = true
			c.dirtyCount++
		}
		c.touch(s)
		completion = c.card.Access(device.Request{
			Time: completion, Op: trace.Write, File: req.File,
			Addr: units.Bytes(s.cacheBlock) * c.blockSize, Size: c.blockSize,
		})
	}
	if float64(c.dirtyCount) >= dirtyHighWater*float64(c.capBlocks) && c.destageDoneAt <= completion {
		c.destage(completion)
	}
	return completion
}

// installClean adds a clean (just-read) block to the cache at the given
// time, returning when the flash write finishes.
func (c *Cache) installClean(at units.Time, diskBlock int64, file uint32) units.Time {
	if _, ok := c.slots[diskBlock]; ok {
		return at
	}
	s := c.allocate(at, diskBlock)
	c.touch(s)
	// Installs run off the host's critical path: the host already has the
	// data (the disk just returned it); the flash write must not delay
	// subsequent host operations.
	return c.card.Background(device.Request{
		Time: at, Op: trace.Write, File: file,
		Addr: units.Bytes(s.cacheBlock) * c.blockSize, Size: c.blockSize,
	})
}

// allocate finds a cache slot for a disk block, evicting the LRU clean
// block if needed; if everything is dirty, it forces a destage first.
func (c *Cache) allocate(at units.Time, diskBlock int64) *slot {
	if len(c.freeCache) == 0 {
		// Evict the least-recently-used clean block.
		victim := c.tail
		for victim != nil && victim.dirty {
			victim = victim.prev
		}
		if victim == nil {
			// All dirty: synchronous destage frees everything.
			c.destage(at)
			victim = c.tail
		}
		c.card.Access(device.Request{
			Time: at, Op: trace.Delete,
			Addr: units.Bytes(victim.cacheBlock) * c.blockSize, Size: c.blockSize,
		})
		c.unlink(victim)
		delete(c.slots, victim.diskBlock)
		c.freeCache = append(c.freeCache, victim.cacheBlock)
	}
	cb := c.freeCache[len(c.freeCache)-1]
	c.freeCache = c.freeCache[:len(c.freeCache)-1]
	s := &slot{diskBlock: diskBlock, cacheBlock: cb}
	c.slots[diskBlock] = s
	c.pushFront(s)
	return s
}

// destage writes all dirty blocks to the disk in one batch via the disk's
// background path (it spins the disk up once), marking them clean.
func (c *Cache) destage(at units.Time) {
	if c.dirtyCount == 0 {
		return
	}
	var blocks []int64
	for b, s := range c.slots {
		if s.dirty {
			blocks = append(blocks, b)
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	completion := at
	runStart, runLen := blocks[0], int64(1)
	emit := func() {
		completion = c.dsk.Background(device.Request{
			Time: completion, Op: trace.Write, File: ^uint32(0),
			Addr: units.Bytes(runStart) * c.blockSize, Size: units.Bytes(runLen) * c.blockSize,
		})
		c.destageWrites++
	}
	for _, b := range blocks[1:] {
		if b == runStart+runLen {
			runLen++
			continue
		}
		emit()
		runStart, runLen = b, 1
	}
	emit()
	for _, b := range blocks {
		c.slots[b].dirty = false
	}
	c.destages++
	c.cDestages.Inc()
	if c.sc.Tracing() {
		c.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvHybridDestage, Dev: c.evName,
			Size: c.dirtyCount, Dur: int64(completion - at)})
	}
	c.dirtyCount = 0
	if completion > c.destageDoneAt {
		c.destageDoneAt = completion
	}
}

// invalidate drops cached copies of a deleted extent; the disk sees the
// delete too (a no-op for the disk model).
func (c *Cache) invalidate(req device.Request) {
	first, last := c.blockRange(req)
	for b := first; b <= last; b++ {
		s, ok := c.slots[b]
		if !ok {
			continue
		}
		c.card.Access(device.Request{
			Time: req.Time, Op: trace.Delete,
			Addr: units.Bytes(s.cacheBlock) * c.blockSize, Size: c.blockSize,
		})
		if s.dirty {
			c.dirtyCount--
		}
		c.unlink(s)
		delete(c.slots, b)
		c.freeCache = append(c.freeCache, s.cacheBlock)
	}
	c.dsk.Access(req)
}

func (c *Cache) blockRange(req device.Request) (first, last int64) {
	return int64(req.Addr / c.blockSize), int64((req.Addr + req.Size - 1) / c.blockSize)
}

func (c *Cache) touch(s *slot) {
	c.unlink(s)
	c.pushFront(s)
}

func (c *Cache) pushFront(s *slot) {
	s.prev = nil
	s.next = c.head
	if c.head != nil {
		c.head.prev = s
	}
	c.head = s
	if c.tail == nil {
		c.tail = s
	}
}

func (c *Cache) unlink(s *slot) {
	if s.prev != nil {
		s.prev.next = s.next
	} else if c.head == s {
		c.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else if c.tail == s {
		c.tail = s.prev
	}
	s.prev, s.next = nil, nil
}

// Crash implements device.Crasher. The flash cache is non-volatile — cached
// blocks, dirty ones included, survive (the whole point of the
// architecture). An in-flight destage batch's writes were already applied to
// the disk's model state when they were issued, so abandoning its timing
// loses nothing; the crash propagates to both devices.
func (c *Cache) Crash(at units.Time) {
	if c.destageDoneAt > at {
		c.destageDoneAt = at
	}
	c.dsk.Crash(at)
	c.card.Crash(at)
}

// Recover implements device.Crasher: both devices recover (the flash cache's
// map scan dominates); dirty cached blocks need no replay — they are still
// in flash and will destage normally.
func (c *Cache) Recover(at units.Time) units.Time {
	done := c.dsk.Recover(at)
	return units.Max(done, c.card.Recover(at))
}

var (
	_ device.Device  = (*Cache)(nil)
	_ device.Crasher = (*Cache)(nil)
)
