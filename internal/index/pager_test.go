package index

import (
	"testing"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

func newTestPager(t *testing.T, pageSize units.Bytes, pool int) *Pager {
	t.Helper()
	pg, err := NewPager(pageSize, pool)
	if err != nil {
		t.Fatalf("NewPager: %v", err)
	}
	return pg
}

func TestPagerRejectsBadConfig(t *testing.T) {
	if _, err := NewPager(0, 32); err == nil {
		t.Fatal("want error for zero page size")
	}
	if _, err := NewPager(1*units.KB, minPoolPages-1); err == nil {
		t.Fatal("want error for tiny pool")
	}
}

// TestPagerEvictionWritesBack pins more pages than the pool holds and
// checks a dirty page travels store→pool→store with exactly one write and
// one read, keeping its payload.
func TestPagerEvictionWritesBack(t *testing.T) {
	const pool = minPoolPages
	pg := newTestPager(t, 512, pool)
	f := pg.NewFile()
	for i := 0; i < pool; i++ {
		p := pg.AllocPin(f, i)
		p.Unpin(true)
	}
	if got := len(pg.recs); got != 0 {
		t.Fatalf("allocations alone emitted %d records", got)
	}
	// One more allocation evicts page 0 (LRU), which is dirty → 1 write.
	p := pg.AllocPin(f, pool)
	p.Unpin(true)
	if got := pg.PageWrites(); got != 1 {
		t.Fatalf("eviction wrote %d pages, want 1", got)
	}
	// Re-pinning page 0 is a miss → 1 read, payload intact.
	rp := pg.Pin(f, 0)
	if got := rp.Data().(int); got != 0 {
		t.Fatalf("page 0 payload = %d after round trip", got)
	}
	rp.Unpin(false)
	if got := pg.PageReads(); got != 1 {
		t.Fatalf("re-pin read %d pages, want 1", got)
	}
}

// TestPagerNoReadBeforeWrite replays a whole engine run's records checking
// the pager never emits a Read for a page extent it has not written first —
// the invariant that makes generated traces physically sensible.
func TestPagerNoReadBeforeWrite(t *testing.T) {
	for _, kind := range EngineKinds {
		t.Run(string(kind), func(t *testing.T) {
			tr, _, err := GenerateTrace(TraceConfig{
				Engine:    kind,
				PageSize:  256,
				PoolPages: 16,
				Ops:       OpsConfig{Seed: 7, Ops: 3000},
			})
			if err != nil {
				t.Fatal(err)
			}
			type extent struct {
				file uint32
				off  units.Bytes
			}
			written := make(map[extent]bool)
			for i, r := range tr.Records {
				switch r.Op {
				case trace.Write:
					written[extent{r.File, r.Offset}] = true
				case trace.Read:
					if !written[extent{r.File, r.Offset}] {
						t.Fatalf("record %d reads %d/%d before any write", i, r.File, r.Offset)
					}
				case trace.Delete:
					for off := units.Bytes(0); off < r.Size; off += tr.BlockSize {
						delete(written, extent{r.File, off})
					}
				}
			}
		})
	}
}

// TestPagerFreeFileEmitsDelete checks Delete records carry the whole file
// extent and that double-free and empty-file-free are silent.
func TestPagerFreeFileEmitsDelete(t *testing.T) {
	pg := newTestPager(t, 512, minPoolPages)
	f := pg.NewFile()
	for i := 0; i < 3; i++ {
		pg.WriteThrough(f, i)
	}
	before := len(pg.recs)
	pg.FreeFile(f)
	recs := pg.Trace("t").Records
	if got := len(recs) - before; got != 1 {
		t.Fatalf("FreeFile emitted %d records, want 1", got)
	}
	last := recs[len(recs)-1]
	if last.Op != trace.Delete || last.Size != 3*512 || last.Offset != 0 {
		t.Fatalf("bad delete record %+v", last)
	}
	pg.FreeFile(f) // double free: no-op
	empty := pg.NewFile()
	pg.FreeFile(empty) // empty file: no-op
	if got := len(pg.Trace("t").Records) - before; got != 1 {
		t.Fatal("double/empty free emitted records")
	}
}

// TestPagerClockMonotonic checks Advance only moves forward and records
// carry non-decreasing times even with hostile deltas.
func TestPagerClockMonotonic(t *testing.T) {
	pg := newTestPager(t, 512, minPoolPages)
	f := pg.NewFile()
	pg.Advance(5)
	pg.WriteThrough(f, 0)
	pg.Advance(-100) // ignored
	pg.WriteThrough(f, 1)
	pg.Advance(0) // ignored
	pg.WriteThrough(f, 2)
	tr := pg.Trace("clock")
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Records[1].Time != 5 || tr.Records[2].Time != 5 {
		t.Fatalf("negative/zero Advance changed the clock: %+v", tr.Records)
	}
}

// TestPagerFlushAllOrder checks the shutdown checkpoint writes dirty pages
// in ascending (file, page) order regardless of dirtying order.
func TestPagerFlushAllOrder(t *testing.T) {
	pg := newTestPager(t, 512, 64)
	f0, f1 := pg.NewFile(), pg.NewFile()
	// Dirty in scrambled order.
	for _, p := range []struct {
		f   FileID
		val int
	}{{f1, 10}, {f0, 0}, {f1, 11}, {f0, 1}} {
		h := pg.AllocPin(p.f, p.val)
		h.Unpin(true)
	}
	pg.FlushAll()
	recs := pg.Trace("flush").Records
	if len(recs) != 4 {
		t.Fatalf("flush emitted %d records, want 4", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if a.File > b.File || (a.File == b.File && a.Offset >= b.Offset) {
			t.Fatalf("flush order violated at %d: %+v then %+v", i, a, b)
		}
	}
	// Second flush is a no-op: nothing is dirty anymore.
	pg.FlushAll()
	if got := len(pg.Trace("flush").Records); got != 4 {
		t.Fatalf("re-flush emitted %d extra records", got-4)
	}
}
