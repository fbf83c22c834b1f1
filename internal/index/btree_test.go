package index

import (
	"math/rand"
	"sort"
	"testing"

	"mobilestorage/internal/units"
)

// modelApply drives an engine and a model map through the same op,
// returning the op for reporting.
func modelApply(e Engine, model map[uint64]uint64, op Op) {
	switch op.Kind {
	case OpInsert:
		e.Insert(op.Key, op.Val)
		model[op.Key] = op.Val
	case OpLookup:
		e.Lookup(op.Key)
	case OpScan:
		n := 0
		e.Scan(op.Key, func(_, _ uint64) bool { n++; return n < op.N })
	case OpDelete:
		e.Delete(op.Key)
		delete(model, op.Key)
	}
}

// checkAgainstModel asserts full engine/model agreement: every model key
// looks up to its value, absent keys miss, and a full scan returns exactly
// the model's pairs in sorted order.
func checkAgainstModel(t *testing.T, e Engine, model map[uint64]uint64, rng *rand.Rand) {
	t.Helper()
	keys := make([]uint64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	for _, k := range keys {
		v, ok := e.Lookup(k)
		if !ok || v != model[k] {
			t.Fatalf("Lookup(%d) = %d,%v; model has %d", k, v, ok, model[k])
		}
	}
	for i := 0; i < 32; i++ {
		k := uint64(rng.Int63())
		if _, in := model[k]; in {
			continue
		}
		if v, ok := e.Lookup(k); ok {
			t.Fatalf("Lookup(%d) = %d,true; model has no such key", k, v)
		}
	}

	var got []uint64
	e.Scan(0, func(k, v uint64) bool {
		if v != model[k] {
			t.Fatalf("Scan yields %d=%d; model says %d", k, v, model[k])
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("full scan yields %d keys; model has %d", len(got), len(keys))
	}
	for i := range got {
		if got[i] != keys[i] {
			t.Fatalf("scan key %d = %d, want %d", i, got[i], keys[i])
		}
		if i > 0 && got[i-1] >= got[i] {
			t.Fatalf("scan not strictly ascending at %d: %d then %d", i, got[i-1], got[i])
		}
	}
}

// TestBTreeProperty runs seeded random op sequences against the model map,
// checking after every batch that lookups/scans agree and the structural
// invariants (sorted keys, occupancy bounds, uniform depth, sibling chain)
// hold. Tiny pages force constant splits and merges.
func TestBTreeProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17, 404} {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			// 16 pages: deep enough pin chains fit (path + rebalance trio)
			// while the ~300-page tree still spills constantly.
			pg, err := NewPager(256, 16)
			if err != nil {
				t.Fatal(err)
			}
			tree := NewBTree(pg)
			g := NewOpGen(OpsConfig{
				Seed:     seed,
				Ops:      4000,
				KeySpace: 4096, // small space → plenty of overwrites and hits
				Mix:      Mix{Insert: 45, Lookup: 20, Scan: 10, Delete: 25},
			})
			model := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i := 0; i < g.cfg.Ops; i++ {
				modelApply(tree, model, g.Next())
				if i%500 == 499 {
					if err := tree.checkInvariants(); err != nil {
						t.Fatalf("after op %d: %v", i, err)
					}
					checkAgainstModel(t, tree, model, rng)
				}
			}
			if err := tree.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			checkAgainstModel(t, tree, model, rng)
			if tree.n != len(model) {
				t.Fatalf("%d keys, model has %d", tree.n, len(model))
			}
			tree.Flush()
			if err := pg.Trace("btree").Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBTreeDeleteReturn checks Delete reports presence correctly.
func TestBTreeDeleteReturn(t *testing.T) {
	pg, err := NewPager(256, minPoolPages)
	if err != nil {
		t.Fatal(err)
	}
	tree := NewBTree(pg)
	if tree.Delete(42) {
		t.Fatal("delete of absent key returned true")
	}
	tree.Insert(42, 1)
	if !tree.Delete(42) {
		t.Fatal("delete of present key returned false")
	}
	if tree.Delete(42) {
		t.Fatal("second delete returned true")
	}
}

// TestBTreeDrainToEmpty inserts then deletes everything, requiring the
// tree to collapse back to a valid (possibly empty-leaf) root.
func TestBTreeDrainToEmpty(t *testing.T) {
	pg, err := NewPager(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	tree := NewBTree(pg)
	const n = 1000
	perm := rand.New(rand.NewSource(9)).Perm(n)
	for _, k := range perm {
		tree.Insert(uint64(k), uint64(k)*3)
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range perm {
		if !tree.Delete(uint64(k)) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	if tree.n != 0 {
		t.Fatalf("%d keys after drain", tree.n)
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	count := 0
	tree.Scan(0, func(_, _ uint64) bool { count++; return true })
	if count != 0 {
		t.Fatalf("scan of drained tree yields %d keys", count)
	}
}

// TestBTreeSequentialInsert covers the classic ascending-insert pattern
// (rightmost-leaf splits) at production-ish page size.
func TestBTreeSequentialInsert(t *testing.T) {
	pg, err := NewPager(1*units.KB, 32)
	if err != nil {
		t.Fatal(err)
	}
	tree := NewBTree(pg)
	const n = 5000
	for k := uint64(0); k < n; k++ {
		tree.Insert(k, k+1)
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.n != n {
		t.Fatalf("%d keys, want %d", tree.n, n)
	}
	// Bounded scan from the middle.
	want := uint64(n / 2)
	tree.Scan(want, func(k, v uint64) bool {
		if k != want || v != k+1 {
			t.Fatalf("scan saw %d=%d, want %d=%d", k, v, want, want+1)
		}
		want++
		return want < n/2+100
	})
}

// TestBTreeWriteAmplification sanity-checks Stats: physical writes must
// exceed logical bytes (whole pages rewritten per entry) and the ratio
// must be finite and positive.
func TestBTreeWriteAmplification(t *testing.T) {
	tr, st, err := GenerateTrace(BenchTraceConfig(EngineBTree, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) == 0 {
		t.Fatal("empty trace")
	}
	if st.LogicalBytes <= 0 || st.WrittenBytes <= 0 {
		t.Fatalf("degenerate stats %+v", st)
	}
	if wa := st.WriteAmplification(); wa <= 1 {
		t.Fatalf("B+tree write amplification %.2f ≤ 1 — page-granular writes must amplify", wa)
	}
}
