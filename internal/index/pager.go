// Package index is the database-index workload family: a block-addressed
// pager with two index engines on top — a B+tree and an LSM-tree — whose
// page I/O is captured as a file-level trace.Trace and replayed through the
// core simulator on every storage alternative the paper compares.
//
// The paper asks which storage alternative wins under file-system traces;
// this package asks the same question for an on-device *database*, the
// dominant mobile workload today. The interesting interaction is between
// the LSM-tree's sequential compaction writes and the flash card's segment
// cleaner (Tehrany et al.'s GC survey), and — following Kim/Whang/Song's
// page-differential logging — write amplification is tracked per index
// engine, not just per device.
//
// Everything is deterministic: the same OpsConfig produces a byte-identical
// trace on every run, on every platform, so generated traces can be pinned
// by golden hashes exactly like the simulator's own outputs.
package index

import (
	"fmt"
	"sort"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// FileID identifies one pager-managed file (a B+tree's node file, or one
// LSM SSTable). It is the trace.Record File field.
type FileID = uint32

// pageKey addresses one fixed-size page within a pager file.
type pageKey struct {
	file FileID
	idx  int64
}

// frame is one resident page in the pager's buffer pool.
type frame struct {
	key        pageKey
	data       any // engine-owned node payload
	dirty      bool
	pins       int
	prev, next *frame // LRU list; head = MRU
}

// Pager is a block-addressed page store with a bounded buffer pool. Engines
// pin pages to use them and unpin them (optionally dirty) when done; a pin
// miss emits a Read record, a dirty eviction or flush emits a Write record,
// and freeing a file emits a Delete record — so one engine run yields a
// trace.Trace the core simulator replays on any device.
//
// The pager holds every page's payload in memory (resident frames plus a
// backing store standing in for the device), so engines stay correct while
// the records model the I/O a real pager would have issued.
type Pager struct {
	pageSize units.Bytes
	poolCap  int
	clock    units.Time

	frames     map[pageKey]*frame
	head, tail *frame // LRU list of resident frames
	store      map[pageKey]any
	filePages  []int64 // pages per file, indexed by FileID
	fileDead   []bool

	recs []trace.Record

	// Stats.
	pageReads, pageWrites int64
	readBytes, writeByts  units.Bytes
}

// minPoolPages keeps eviction meaningful while leaving room for the deepest
// pin chain an engine holds (a B+tree descent pins one page per level).
const minPoolPages = 8

// NewPager builds a pager with the given page size and buffer-pool
// capacity in pages.
func NewPager(pageSize units.Bytes, poolPages int) (*Pager, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("index: non-positive page size %d", pageSize)
	}
	if poolPages < minPoolPages {
		return nil, fmt.Errorf("index: pool of %d pages is under the minimum %d", poolPages, minPoolPages)
	}
	return &Pager{
		pageSize: pageSize,
		poolCap:  poolPages,
		frames:   make(map[pageKey]*frame, poolPages),
		store:    make(map[pageKey]any),
	}, nil
}

// PageSize returns the fixed page size.
func (p *Pager) PageSize() units.Bytes { return p.pageSize }

// Advance moves the logical clock forward; every record emitted afterwards
// carries the new time. The op generator calls this once per operation.
func (p *Pager) Advance(dt units.Time) {
	if dt > 0 {
		p.clock += dt
	}
}

// NewFile allocates a fresh file ID with no pages.
func (p *Pager) NewFile() FileID {
	p.filePages = append(p.filePages, 0)
	p.fileDead = append(p.fileDead, false)
	return FileID(len(p.filePages) - 1)
}

// emit appends one trace record at the current clock.
func (p *Pager) emit(op trace.Op, key pageKey, size units.Bytes) {
	p.recs = append(p.recs, trace.Record{
		Time:   p.clock,
		Op:     op,
		File:   key.file,
		Offset: units.Bytes(key.idx) * p.pageSize,
		Size:   size,
	})
}

// evictOne writes back and drops the least-recently-used unpinned frame.
func (p *Pager) evictOne() {
	victim := p.tail
	for victim != nil && victim.pins > 0 {
		victim = victim.prev
	}
	if victim == nil {
		panic("index: buffer pool exhausted by pinned pages")
	}
	if victim.dirty {
		p.emit(trace.Write, victim.key, p.pageSize)
		p.pageWrites++
		p.writeByts += p.pageSize
	}
	p.store[victim.key] = victim.data
	p.unlink(victim)
	delete(p.frames, victim.key)
}

// install makes room and inserts a new resident frame at the MRU position.
func (p *Pager) install(fr *frame) {
	for len(p.frames) >= p.poolCap {
		p.evictOne()
	}
	p.frames[fr.key] = fr
	p.pushFront(fr)
}

// AllocPin appends a new page holding data to file f and returns it pinned
// and dirty (a fresh page must reach the device eventually).
func (p *Pager) AllocPin(f FileID, data any) *Page {
	idx := p.filePages[f]
	p.filePages[f]++
	fr := &frame{key: pageKey{file: f, idx: idx}, data: data, dirty: true, pins: 1}
	p.install(fr)
	return &Page{fr: fr}
}

// Pin makes page (f, idx) resident and returns a handle. A pool miss emits
// a Read record (the page was written back before it left the pool, so a
// read never precedes the page's first device write).
func (p *Pager) Pin(f FileID, idx int64) *Page {
	key := pageKey{file: f, idx: idx}
	if fr, ok := p.frames[key]; ok {
		fr.pins++
		p.touch(fr)
		return &Page{fr: fr}
	}
	data, ok := p.store[key]
	if !ok {
		panic(fmt.Sprintf("index: pin of unallocated page %d/%d", f, idx))
	}
	delete(p.store, key)
	p.emit(trace.Read, key, p.pageSize)
	p.pageReads++
	p.readBytes += p.pageSize
	fr := &frame{key: key, data: data, pins: 1}
	p.install(fr)
	return &Page{fr: fr}
}

// WriteThrough stores a page's payload and emits its Write record
// immediately, bypassing the buffer pool — the shape of an LSM flush or
// compaction output stream, which a real engine writes sequentially without
// polluting the pool. The page must be the next unallocated page of f
// (streams only append).
func (p *Pager) WriteThrough(f FileID, data any) int64 {
	idx := p.filePages[f]
	p.filePages[f]++
	key := pageKey{file: f, idx: idx}
	p.store[key] = data
	p.emit(trace.Write, key, p.pageSize)
	p.pageWrites++
	p.writeByts += p.pageSize
	return idx
}

// FreeFile drops every page of f and emits one Delete record covering the
// file's extent. Resident frames are discarded without write-back — the
// file is gone. Freeing an empty or already-freed file emits nothing.
func (p *Pager) FreeFile(f FileID) {
	if p.fileDead[f] {
		return
	}
	p.fileDead[f] = true
	pages := p.filePages[f]
	if pages == 0 {
		return
	}
	// Walk the LRU list (deterministic order) collecting resident frames of
	// f; map iteration would be fine semantically but not reproducibly.
	for fr := p.head; fr != nil; {
		next := fr.next
		if fr.key.file == f {
			if fr.pins > 0 {
				panic(fmt.Sprintf("index: freeing file %d with pinned page %d", f, fr.key.idx))
			}
			p.unlink(fr)
			delete(p.frames, fr.key)
		}
		fr = next
	}
	for idx := int64(0); idx < pages; idx++ {
		delete(p.store, pageKey{file: f, idx: idx})
	}
	p.emit(trace.Delete, pageKey{file: f}, units.Bytes(pages)*p.pageSize)
}

// FlushAll writes back every dirty resident frame in ascending (file, page)
// order — the deterministic shutdown checkpoint that ends every run.
func (p *Pager) FlushAll() {
	var dirty []*frame
	for fr := p.head; fr != nil; fr = fr.next {
		if fr.dirty {
			dirty = append(dirty, fr)
		}
	}
	sort.Slice(dirty, func(i, j int) bool {
		if dirty[i].key.file != dirty[j].key.file {
			return dirty[i].key.file < dirty[j].key.file
		}
		return dirty[i].key.idx < dirty[j].key.idx
	})
	for _, fr := range dirty {
		p.emit(trace.Write, fr.key, p.pageSize)
		p.pageWrites++
		p.writeByts += p.pageSize
		fr.dirty = false
	}
}

// Trace returns the accumulated records as a simulator-ready trace. The
// trace's block size is the page size, so placements align with pages.
func (p *Pager) Trace(name string) *trace.Trace {
	return &trace.Trace{Name: name, BlockSize: p.pageSize, Records: p.recs}
}

// PageReads / PageWrites / ReadBytes / WriteBytes report physical I/O.
func (p *Pager) PageReads() int64        { return p.pageReads }
func (p *Pager) PageWrites() int64       { return p.pageWrites }
func (p *Pager) ReadBytes() units.Bytes  { return p.readBytes }
func (p *Pager) WriteBytes() units.Bytes { return p.writeByts }

// Page is a pinned page handle.
type Page struct {
	fr *frame
}

// Data returns the engine-owned payload.
func (pg *Page) Data() any { return pg.fr.data }

// Index returns the page's index within its file.
func (pg *Page) Index() int64 { return pg.fr.key.idx }

// Unpin releases the handle; dirty marks the page as needing write-back.
func (pg *Page) Unpin(dirty bool) {
	if pg.fr.pins <= 0 {
		panic("index: unpin of unpinned page")
	}
	pg.fr.pins--
	if dirty {
		pg.fr.dirty = true
	}
}

// LRU helpers (head = MRU).

func (p *Pager) touch(fr *frame) {
	p.unlink(fr)
	p.pushFront(fr)
}

func (p *Pager) pushFront(fr *frame) {
	fr.prev = nil
	fr.next = p.head
	if p.head != nil {
		p.head.prev = fr
	}
	p.head = fr
	if p.tail == nil {
		p.tail = fr
	}
}

func (p *Pager) unlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else if p.head == fr {
		p.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else if p.tail == fr {
		p.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}
