// Package cache models the DRAM buffer cache that fronts every storage
// configuration in the paper (§2, §4.2): block-granular, LRU, and
// write-through by default ("this models the behavior of the Macintosh
// operating system and until recently the DOS file system"). A write-back
// mode is provided for the ablation the paper mentions but does not
// simulate ("a write-back cache might avoid some erasures at the cost of
// occasional data loss").
//
// The implementation is allocation-free on the lookup/insert hot path: all
// LRU nodes live in one slab sized on the first insert, linked by index, and
// block numbers resolve through a flat table (small block numbers) or a
// spill map (adversarial ones). RefCache keeps the original map-and-pointer
// implementation for differential testing.
//
// The simulator replays the LRU once per trace and cache geometry, not once
// per run: which reads hit and which dirty blocks an insert evicts depend
// only on the request sequence, never on device completions. internal/core
// records those decisions in a per-trace filter, and each run keeps a Cache
// only as its DRAM energy meter (AccessTime, AccrueStandby) and hit/miss
// counter (CountLookup), which allocates no LRU slab.
package cache

import (
	"fmt"
	"math/bits"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/units"
)

// Extent is a contiguous byte range in device address space.
type Extent struct {
	Addr units.Bytes
	Size units.Bytes
}

// denseBlockLimit bounds the flat block-index table: block numbers below it
// index a slice (grown on demand, ≤ 8 MB fully grown), numbers at or above
// it fall back to a map. Real replays stay far below it — block numbers are
// bounded by the trace footprint over the block size.
const denseBlockLimit = 1 << 21

// nilNode marks list ends and empty free lists in the node slab.
const nilNode = int32(-1)

// node is one cached block in the slab-backed intrusive LRU list.
type node struct {
	block      int64
	prev, next int32
	dirty      bool
}

// Cache is a block-granular LRU buffer cache.
type Cache struct {
	params    device.MemoryParams
	size      units.Bytes
	blockSize units.Bytes
	capBlocks int
	writeBack bool

	// blockShift replaces the per-access division by blockSize with a shift
	// when the block size is a power of two (it always is in practice).
	blockShift uint8
	shiftOK    bool

	// nodes is the slab holding every LRU entry, allocated on the first
	// insert; alloc bump-allocates never-used slots, free chains returned
	// ones through next.
	nodes []node
	alloc int32
	free  int32
	used  int
	// head is most-recently used; tail is least-recently used.
	head, tail int32

	// denseIdx[b] is the slab index + 1 of block b's node (0 = absent);
	// sparseIdx covers blocks ≥ denseBlockLimit, nil until needed.
	denseIdx  []int32
	sparseIdx map[int64]int32

	// xferMemo caches DRAM transfer times per size (bit-identical to
	// params.AccessTime, which divides by the same fixed bandwidth).
	xferMemo units.TransferMemo

	// scratch buffers slab indices between Contains's presence pass and its
	// touch pass so each block resolves through the index exactly once.
	scratch []int32

	meter      *energy.Meter
	lastUpdate units.Time

	hits, misses int64

	// Observability (nil-safe no-ops without a scope).
	cHits   *obs.Counter
	cMisses *obs.Counter
}

// Option configures a Cache.
type Option func(*Cache)

// WithScope attaches an observability scope: hit/miss counters. Events are
// emitted by the simulation core, which knows the request timestamps. A nil
// scope is free.
func WithScope(sc *obs.Scope) Option {
	return func(c *Cache) {
		c.cHits = sc.Counter("cache.hits")
		c.cMisses = sc.Counter("cache.misses")
	}
}

// New builds a cache of the given total size; size must hold at least one
// block. The zero-size case is handled by callers (they bypass the cache
// entirely, as the hp simulations require).
func New(params device.MemoryParams, size, blockSize units.Bytes, writeBack bool, opts ...Option) (*Cache, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("cache: block size must be positive")
	}
	capBlocks := int(size / blockSize)
	if capBlocks < 1 {
		return nil, fmt.Errorf("cache: size %v holds no %v blocks", size, blockSize)
	}
	if capBlocks > 1<<30 {
		return nil, fmt.Errorf("cache: size %v holds %d blocks, beyond the supported 2^30", size, capBlocks)
	}
	c := &Cache{
		params:    params,
		size:      size,
		blockSize: blockSize,
		capBlocks: capBlocks,
		writeBack: writeBack,
		free:      nilNode,
		head:      nilNode,
		tail:      nilNode,
		meter:     energy.NewMeter(),
		xferMemo:  units.NewTransferMemo(params.TransferKBs),
	}
	if blockSize&(blockSize-1) == 0 {
		c.shiftOK = true
		c.blockShift = uint8(bits.TrailingZeros64(uint64(blockSize)))
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Meter exposes the cache's energy accounting.
func (c *Cache) Meter() *energy.Meter { return c.meter }

// Hits and Misses report lookup outcomes.
func (c *Cache) Hits() int64   { return c.hits }
func (c *Cache) Misses() int64 { return c.misses }

// AccessTime returns the DRAM transfer time for size bytes and charges the
// active energy for it.
func (c *Cache) AccessTime(size units.Bytes) units.Time {
	t := c.xferMemo.Time(size)
	c.meter.Accrue(energy.StateActive, c.params.ActiveW, t)
	return t
}

// AccrueStandby integrates retention (refresh) power up to now. The paper's
// §5.4 trade-off — extra DRAM costs energy even when idle — comes from
// exactly this term.
func (c *Cache) AccrueStandby(now units.Time) {
	if now <= c.lastUpdate {
		return
	}
	c.meter.Accrue(energy.StateStandby, c.params.StandbyWPerMB*c.size.MBytes(), now-c.lastUpdate)
	c.lastUpdate = now
}

// Contains reports whether every block of [addr, addr+size) is cached,
// touching the blocks' recency and recording a hit or miss.
func (c *Cache) Contains(addr, size units.Bytes) bool {
	if size <= 0 {
		return false
	}
	first, last := c.blockRange(addr, size)
	n := last - first + 1
	if int64(len(c.scratch)) < n {
		c.scratch = make([]int32, n)
	}
	for b := first; b <= last; b++ {
		idx, ok := c.lookup(b)
		if !ok {
			c.CountLookup(false)
			return false
		}
		c.scratch[b-first] = idx
	}
	// Touching is deferred until every block is known present: a miss on a
	// later block must leave recency untouched, exactly as the original
	// two-pass lookup did.
	for _, idx := range c.scratch[:n] {
		c.touch(idx)
	}
	c.CountLookup(true)
	return true
}

// CountLookup records one lookup outcome without consulting the LRU, exactly
// as Contains records its own. It serves callers that took the outcome from
// a replay of the same requests through another Cache of this geometry.
func (c *Cache) CountLookup(hit bool) {
	if hit {
		c.hits++
		c.cHits.Inc()
	} else {
		c.misses++
		c.cMisses.Inc()
	}
}

// Insert caches every block of [addr, addr+size), marking them dirty when
// requested (write-back mode). It returns the dirty extents evicted to make
// room, which the caller must write to the device. In write-through mode
// nothing is ever dirty and the returned slice is always empty.
func (c *Cache) Insert(addr, size units.Bytes, dirty bool) []Extent {
	if size <= 0 {
		return nil
	}
	if !c.writeBack {
		dirty = false
	}
	var evicted []Extent
	first, last := c.blockRange(addr, size)
	for b := first; b <= last; b++ {
		if idx, ok := c.lookup(b); ok {
			n := &c.nodes[idx]
			n.dirty = n.dirty || dirty
			c.touch(idx)
			continue
		}
		for c.used >= c.capBlocks {
			if e := c.evictLRU(); e != nil {
				evicted = append(evicted, *e)
			}
		}
		idx := c.allocNode(b, dirty)
		c.setIndex(b, idx)
		c.pushFront(idx)
		c.used++
	}
	if evicted == nil {
		// The common case for write-through (nothing is ever dirty): skip
		// the coalesce call entirely.
		return nil
	}
	return coalesce(evicted)
}

// Invalidate drops any cached blocks of [addr, addr+size) without writing
// them back (used for file deletion).
func (c *Cache) Invalidate(addr, size units.Bytes) {
	if size <= 0 {
		return
	}
	first, last := c.blockRange(addr, size)
	for b := first; b <= last; b++ {
		if idx, ok := c.lookup(b); ok {
			c.unlink(idx)
			c.clearIndex(b)
			c.freeNode(idx)
			c.used--
		}
	}
}

// DirtyExtents returns all dirty data as coalesced extents and marks it
// clean (the final write-back flush).
func (c *Cache) DirtyExtents() []Extent {
	var out []Extent
	for idx := c.head; idx != nilNode; idx = c.nodes[idx].next {
		if n := &c.nodes[idx]; n.dirty {
			n.dirty = false
			out = append(out, Extent{Addr: units.Bytes(n.block) * c.blockSize, Size: c.blockSize})
		}
	}
	return coalesce(out)
}

// Crash empties the cache — DRAM loses everything at power failure — and
// returns how many of the lost blocks were dirty. A non-zero return means
// acknowledged writes were lost, which only the write-back ablation can
// legitimately produce; write-through configurations never hold dirty data.
func (c *Cache) Crash() int {
	dirty := 0
	for idx := c.head; idx != nilNode; idx = c.nodes[idx].next {
		if c.nodes[idx].dirty {
			dirty++
		}
	}
	clear(c.denseIdx)
	c.sparseIdx = nil
	c.alloc = 0
	c.free = nilNode
	c.used = 0
	c.head, c.tail = nilNode, nilNode
	return dirty
}

func (c *Cache) blockRange(addr, size units.Bytes) (first, last int64) {
	if c.shiftOK {
		return int64(addr >> c.blockShift), int64((addr + size - 1) >> c.blockShift)
	}
	return int64(addr / c.blockSize), int64((addr + size - 1) / c.blockSize)
}

// lookup resolves a block number to its slab index.
func (c *Cache) lookup(b int64) (int32, bool) {
	if uint64(b) < uint64(len(c.denseIdx)) {
		v := c.denseIdx[b]
		return v - 1, v > 0
	}
	if b >= 0 && b < denseBlockLimit {
		return 0, false // inside the dense range but table not grown there
	}
	v, ok := c.sparseIdx[b]
	return v - 1, ok
}

// setIndex records a block's slab index, growing the dense table on demand.
func (c *Cache) setIndex(b int64, idx int32) {
	if b >= 0 && b < denseBlockLimit {
		if b >= int64(len(c.denseIdx)) {
			if b < int64(cap(c.denseIdx)) {
				// The tail of the backing array is always zero: writes only
				// land below len, and Crash clears everything below len.
				c.denseIdx = c.denseIdx[:b+1]
			} else {
				n := 2 * cap(c.denseIdx)
				if n < 1024 {
					n = 1024
				}
				if b >= int64(n) {
					n = int(b) + 1
				}
				grown := make([]int32, int(b)+1, n)
				copy(grown, c.denseIdx)
				c.denseIdx = grown
			}
		}
		c.denseIdx[b] = idx + 1
		return
	}
	if c.sparseIdx == nil {
		c.sparseIdx = make(map[int64]int32)
	}
	c.sparseIdx[b] = idx + 1
}

func (c *Cache) clearIndex(b int64) {
	if uint64(b) < uint64(len(c.denseIdx)) {
		c.denseIdx[b] = 0
		return
	}
	delete(c.sparseIdx, b)
}

// allocNode takes a slab slot for a new block: reuse a freed slot first,
// else bump-allocate a never-used one.
func (c *Cache) allocNode(b int64, dirty bool) int32 {
	if c.nodes == nil {
		c.nodes = make([]node, c.capBlocks)
	}
	var idx int32
	if c.free != nilNode {
		idx = c.free
		c.free = c.nodes[idx].next
	} else {
		idx = c.alloc
		c.alloc++
	}
	c.nodes[idx] = node{block: b, dirty: dirty, prev: nilNode, next: nilNode}
	return idx
}

func (c *Cache) freeNode(idx int32) {
	c.nodes[idx].next = c.free
	c.free = idx
}

// evictLRU removes the least-recently-used block, returning its extent if
// it was dirty.
func (c *Cache) evictLRU() *Extent {
	idx := c.tail
	if idx == nilNode {
		panic("cache: eviction from empty cache")
	}
	c.unlink(idx)
	n := c.nodes[idx]
	c.clearIndex(n.block)
	c.freeNode(idx)
	c.used--
	if n.dirty {
		return &Extent{Addr: units.Bytes(n.block) * c.blockSize, Size: c.blockSize}
	}
	return nil
}

func (c *Cache) touch(idx int32) {
	if c.head == idx {
		return
	}
	c.unlink(idx)
	c.pushFront(idx)
}

func (c *Cache) pushFront(idx int32) {
	n := &c.nodes[idx]
	n.prev = nilNode
	n.next = c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = idx
	}
	c.head = idx
	if c.tail == nilNode {
		c.tail = idx
	}
}

func (c *Cache) unlink(idx int32) {
	n := &c.nodes[idx]
	if n.prev != nilNode {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nilNode {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nilNode, nilNode
}

// coalesce merges adjacent extents (sorted by address) to turn per-block
// evictions into the fewest device writes.
func coalesce(extents []Extent) []Extent {
	if len(extents) < 2 {
		return extents
	}
	// Insertion sort: eviction batches are tiny.
	for i := 1; i < len(extents); i++ {
		for j := i; j > 0 && extents[j].Addr < extents[j-1].Addr; j-- {
			extents[j], extents[j-1] = extents[j-1], extents[j]
		}
	}
	out := extents[:1]
	for _, e := range extents[1:] {
		lastIdx := len(out) - 1
		if out[lastIdx].Addr+out[lastIdx].Size == e.Addr {
			out[lastIdx].Size += e.Size
		} else {
			out = append(out, e)
		}
	}
	return out
}
