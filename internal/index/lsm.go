package index

import (
	"sort"

	"mobilestorage/internal/units"
)

// lsmEntry is one key's state: a value or a tombstone.
type lsmEntry struct {
	key       uint64
	val       uint64
	tombstone bool
}

// lsmEntrySize approximates the on-disk footprint of one entry: key, value,
// and a flag byte. It sets how many entries fill an SST page.
const lsmEntrySize = units.Bytes(17)

// sstPage is one page of an SSTable: a sorted run of entries.
type sstPage struct {
	entries []lsmEntry
}

// sstable is one immutable sorted file plus its fence index (first key per
// page), which a real engine keeps in memory to binary-search reads.
type sstable struct {
	file        FileID
	pages       int64
	fence       []uint64 // fence[i] = first key of page i
	first, last uint64
}

// LSM is a leveled log-structured merge tree: an in-memory memtable that
// flushes to L0 SSTables, with full-level merges pushing data down as
// levels fill. Flushes and compactions stream sequentially through
// Pager.WriteThrough — the access pattern whose interaction with the flash
// card's segment cleaner this workload family exists to measure.
type LSM struct {
	pg *Pager

	mem      map[uint64]lsmEntry
	memLimit int // entries before flush

	levels [][]sstable // levels[0] newest-first; deeper levels sorted by first key

	logicalBytes units.Bytes
}

const (
	// l0Trigger compactions L0 into L1 once this many runs pile up.
	l0Trigger = 4
	// levelBase is the max SSTables in L1; each deeper level holds 10×.
	levelBase = 4
	// sstTargetPages caps one output SSTable during compaction.
	sstTargetPages = 16
)

// NewLSM creates an empty tree backed by pg. memBytes bounds the memtable
// (at least one page's worth of entries).
func NewLSM(pg *Pager, memBytes units.Bytes) *LSM {
	limit := int(memBytes / lsmEntrySize)
	if minEntries := int(pg.PageSize() / lsmEntrySize); limit < minEntries {
		limit = minEntries
	}
	return &LSM{
		pg:       pg,
		mem:      make(map[uint64]lsmEntry),
		memLimit: limit,
		levels:   make([][]sstable, 1),
	}
}

// Name implements Engine.
func (l *LSM) Name() string { return "lsm" }

// Insert adds or overwrites key.
func (l *LSM) Insert(key, val uint64) {
	l.logicalBytes += lsmEntrySize
	l.mem[key] = lsmEntry{key: key, val: val}
	l.maybeFlush()
}

// Delete writes a tombstone for key.
func (l *LSM) Delete(key uint64) bool {
	_, existed := l.Lookup(key)
	l.logicalBytes += lsmEntrySize
	l.mem[key] = lsmEntry{key: key, tombstone: true}
	l.maybeFlush()
	return existed
}

func (l *LSM) maybeFlush() {
	if len(l.mem) >= l.memLimit {
		l.flushMemtable()
		l.compact()
	}
}

// entriesPerPage is how many entries one SST page holds.
func (l *LSM) entriesPerPage() int {
	n := int(l.pg.PageSize() / lsmEntrySize)
	if n < 1 {
		n = 1
	}
	return n
}

// flushMemtable sorts the memtable and streams it out as one L0 SSTable.
func (l *LSM) flushMemtable() {
	if len(l.mem) == 0 {
		return
	}
	entries := make([]lsmEntry, 0, len(l.mem))
	for _, e := range l.mem {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	sst := l.writeSST(entries)
	// L0 is newest-first so lookups see the freshest run first.
	l.levels[0] = append([]sstable{sst}, l.levels[0]...)
	l.mem = make(map[uint64]lsmEntry)
}

// writeSST streams sorted entries into a fresh file page by page.
func (l *LSM) writeSST(entries []lsmEntry) sstable {
	per := l.entriesPerPage()
	f := l.pg.NewFile()
	sst := sstable{file: f, first: entries[0].key, last: entries[len(entries)-1].key}
	for off := 0; off < len(entries); off += per {
		end := off + per
		if end > len(entries) {
			end = len(entries)
		}
		page := &sstPage{entries: append([]lsmEntry(nil), entries[off:end]...)}
		l.pg.WriteThrough(f, page)
		sst.fence = append(sst.fence, entries[off].key)
		sst.pages++
	}
	return sst
}

// levelCap is the run budget of level i (i ≥ 1).
func levelCap(i int) int {
	c := levelBase
	for ; i > 1; i-- {
		c *= 10
	}
	return c
}

// compact pushes overfull levels down until every level fits its budget.
// Each round merges one whole level with the next — coarse but simple, and
// it produces exactly the long sequential write bursts leveled compaction
// is known for.
func (l *LSM) compact() {
	for lvl := 0; lvl < len(l.levels); lvl++ {
		over := false
		if lvl == 0 {
			over = len(l.levels[0]) >= l0Trigger
		} else {
			over = len(l.levels[lvl]) > levelCap(lvl)
		}
		if !over {
			continue
		}
		if lvl+1 >= len(l.levels) {
			l.levels = append(l.levels, nil)
		}
		l.mergeLevels(lvl)
		// Re-examine the level that just received the data on the next
		// iteration of the loop (lvl+1 comes up naturally).
	}
}

// mergeLevels merges every SSTable in lvl and lvl+1 into fresh SSTables in
// lvl+1, then deletes the inputs. Newer runs shadow older ones; tombstones
// are dropped when the output level is the bottom of the tree.
func (l *LSM) mergeLevels(lvl int) {
	inputs := make([]sstable, 0, len(l.levels[lvl])+len(l.levels[lvl+1]))
	inputs = append(inputs, l.levels[lvl]...)   // newest-first within L0; L1+ disjoint
	inputs = append(inputs, l.levels[lvl+1]...) // older than everything in lvl
	merged := l.mergeSSTs(inputs, l.levelEmptyBelow(lvl+1))
	for _, sst := range inputs {
		l.pg.FreeFile(sst.file)
	}
	l.levels[lvl] = nil
	l.levels[lvl+1] = merged
}

// levelEmptyBelow reports whether every level deeper than lvl is empty,
// which makes lvl the effective bottom (safe to drop tombstones into).
func (l *LSM) levelEmptyBelow(lvl int) bool {
	for i := lvl + 1; i < len(l.levels); i++ {
		if len(l.levels[i]) > 0 {
			return false
		}
	}
	return true
}

// mergeSSTs k-way merges input runs (earlier runs win ties) into a stream
// of new SSTables capped at sstTargetPages each.
func (l *LSM) mergeSSTs(inputs []sstable, dropTombstones bool) []sstable {
	iters := make([]*sstIter, len(inputs))
	for i, sst := range inputs {
		iters[i] = l.newSSTIter(sst)
	}
	var out []sstable
	var pending []lsmEntry
	per := l.entriesPerPage()
	flushPending := func(force bool) {
		for len(pending) >= per*sstTargetPages || (force && len(pending) > 0) {
			n := per * sstTargetPages
			if n > len(pending) {
				n = len(pending)
			}
			out = append(out, l.writeSST(pending[:n]))
			pending = append([]lsmEntry(nil), pending[n:]...)
		}
	}
	for {
		// Pick the smallest current key; among equals the lowest input
		// index (newest run) wins.
		best := -1
		for i, it := range iters {
			if !it.valid() {
				continue
			}
			if best == -1 || it.cur().key < iters[best].cur().key {
				best = i
			}
		}
		if best == -1 {
			break
		}
		e := iters[best].cur()
		for _, it := range iters {
			if it.valid() && it.cur().key == e.key {
				it.next()
			}
		}
		if e.tombstone && dropTombstones {
			continue
		}
		pending = append(pending, e)
		flushPending(false)
	}
	flushPending(true)
	return out
}

// sstIter streams one SSTable's entries in order, pinning one page at a
// time (sequential reads through the pager).
type sstIter struct {
	l    *LSM
	sst  sstable
	page int64
	pos  int
	curE []lsmEntry
}

func (l *LSM) newSSTIter(sst sstable) *sstIter {
	it := &sstIter{l: l, sst: sst, page: -1}
	it.loadNextPage()
	return it
}

func (it *sstIter) loadNextPage() {
	it.page++
	it.pos = 0
	if it.page >= it.sst.pages {
		it.curE = nil
		return
	}
	pg := it.l.pg.Pin(it.sst.file, it.page)
	it.curE = pg.Data().(*sstPage).entries
	pg.Unpin(false)
}

func (it *sstIter) valid() bool { return it.curE != nil }

func (it *sstIter) cur() lsmEntry { return it.curE[it.pos] }

func (it *sstIter) next() {
	it.pos++
	if it.pos >= len(it.curE) {
		it.loadNextPage()
	}
}

// Lookup returns the value stored under key, consulting the memtable, then
// L0 newest-first, then each deeper level via fence-index binary search.
func (l *LSM) Lookup(key uint64) (uint64, bool) {
	if e, ok := l.mem[key]; ok {
		return e.val, !e.tombstone
	}
	for lvl, ssts := range l.levels {
		if lvl == 0 {
			for _, sst := range ssts {
				if e, ok := l.searchSST(sst, key); ok {
					return e.val, !e.tombstone
				}
			}
			continue
		}
		// Deeper levels hold disjoint runs sorted by first key.
		i := sort.Search(len(ssts), func(i int) bool { return ssts[i].first > key })
		if i == 0 {
			continue
		}
		sst := ssts[i-1]
		if key > sst.last {
			continue
		}
		if e, ok := l.searchSST(sst, key); ok {
			return e.val, !e.tombstone
		}
	}
	return 0, false
}

// searchSST binary-searches one SSTable for key via its fence index.
func (l *LSM) searchSST(sst sstable, key uint64) (lsmEntry, bool) {
	if key < sst.first || key > sst.last {
		return lsmEntry{}, false
	}
	pi := sort.Search(len(sst.fence), func(i int) bool { return sst.fence[i] > key })
	if pi == 0 {
		return lsmEntry{}, false
	}
	pg := l.pg.Pin(sst.file, int64(pi-1))
	entries := pg.Data().(*sstPage).entries
	pos := sort.Search(len(entries), func(i int) bool { return entries[i].key >= key })
	var e lsmEntry
	ok := pos < len(entries) && entries[pos].key == key
	if ok {
		e = entries[pos]
	}
	pg.Unpin(false)
	return e, ok
}

// entryIter streams lsmEntries in ascending key order.
type entryIter interface {
	valid() bool
	cur() lsmEntry
	next()
}

// sliceIter iterates a pre-sorted in-memory slice (the memtable snapshot).
type sliceIter struct {
	entries []lsmEntry
	pos     int
}

func (it *sliceIter) valid() bool   { return it.pos < len(it.entries) }
func (it *sliceIter) cur() lsmEntry { return it.entries[it.pos] }
func (it *sliceIter) next()         { it.pos++ }

// levelIter chains one disjoint level's SSTables lazily: the next run is
// only opened (and its pages read) once the scan actually reaches it.
type levelIter struct {
	l    *LSM
	ssts []sstable
	idx  int
	it   *sstIter
}

func (l *LSM) newLevelIter(ssts []sstable, lo uint64) *levelIter {
	i := sort.Search(len(ssts), func(i int) bool { return ssts[i].first > lo })
	if i > 0 && ssts[i-1].last >= lo {
		i--
	}
	li := &levelIter{l: l, ssts: ssts, idx: i}
	li.open()
	if li.it != nil {
		for li.it.valid() && li.it.cur().key < lo {
			li.it.next()
		}
		li.settle()
	}
	return li
}

func (li *levelIter) open() {
	if li.idx < len(li.ssts) {
		li.it = li.l.newSSTIter(li.ssts[li.idx])
	} else {
		li.it = nil
	}
}

// settle skips exhausted runs until a valid entry or the level's end.
func (li *levelIter) settle() {
	for li.it != nil && !li.it.valid() {
		li.idx++
		li.open()
	}
}

func (li *levelIter) valid() bool   { return li.it != nil && li.it.valid() }
func (li *levelIter) cur() lsmEntry { return li.it.cur() }
func (li *levelIter) next()         { li.it.next(); li.settle() }

// Scan visits live pairs in ascending key order starting at lo, calling fn
// until it returns false. It k-way merges the memtable and every run,
// suppressing shadowed entries and tombstones. Sources are ordered newest
// to oldest so the freshest version of each key wins.
func (l *LSM) Scan(lo uint64, fn func(k, v uint64) bool) {
	var sources []entryIter

	memKeys := make([]lsmEntry, 0, len(l.mem))
	for _, e := range l.mem {
		if e.key >= lo {
			memKeys = append(memKeys, e)
		}
	}
	sort.Slice(memKeys, func(i, j int) bool { return memKeys[i].key < memKeys[j].key })
	sources = append(sources, &sliceIter{entries: memKeys})

	for lvl, ssts := range l.levels {
		if lvl == 0 {
			for _, sst := range ssts {
				if sst.last < lo {
					continue
				}
				it := l.newSSTIter(sst)
				for it.valid() && it.cur().key < lo {
					it.next()
				}
				sources = append(sources, it)
			}
			continue
		}
		sources = append(sources, l.newLevelIter(ssts, lo))
	}

	for {
		best := -1
		for i, src := range sources {
			if !src.valid() {
				continue
			}
			if best == -1 || src.cur().key < sources[best].cur().key {
				best = i
			}
		}
		if best == -1 {
			return
		}
		e := sources[best].cur()
		for _, src := range sources {
			if src.valid() && src.cur().key == e.key {
				src.next()
			}
		}
		if e.tombstone {
			continue
		}
		if !fn(e.key, e.val) {
			return
		}
	}
}

// Flush persists the memtable and settles compaction — the shutdown
// checkpoint ending a run.
func (l *LSM) Flush() {
	l.flushMemtable()
	l.compact()
	l.pg.FlushAll()
}

// Len returns the number of live keys (full scan; test/reporting use only).
func (l *LSM) Len() int {
	n := 0
	l.Scan(0, func(_, _ uint64) bool { n++; return true })
	return n
}

// Stats implements Engine.
func (l *LSM) Stats() Stats {
	return Stats{
		Engine:       l.Name(),
		Keys:         l.Len(),
		LogicalBytes: l.logicalBytes,
		WrittenBytes: l.pg.WriteBytes(),
		PageReads:    l.pg.PageReads(),
		PageWrites:   l.pg.PageWrites(),
	}
}
