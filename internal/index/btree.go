package index

import (
	"fmt"
	"sort"

	"mobilestorage/internal/units"
)

// bnode is one B+tree page: a leaf holds keys+vals and a next-sibling page
// index; an interior node holds keys and kids, with kids[i] covering keys
// < keys[i] and kids[len(keys)] covering the rest.
type bnode struct {
	leaf bool
	keys []uint64
	vals []uint64 // leaf only
	kids []int64  // interior only
	next int64    // leaf sibling chain; -1 at the tail
}

// btreeHeader is the per-page bookkeeping a real node would serialize
// (leaf flag, count, sibling pointer, checksum); entries fill the rest.
const btreeHeader = units.Bytes(64)

// btreeEntry is one key/value or key/child pair: two uint64s.
const btreeEntry = units.Bytes(16)

// BTree is a paged B+tree mapping uint64 keys to uint64 values. All node
// access goes through the pager, so every lookup, split, and merge shows up
// in the generated trace.
type BTree struct {
	pg   *Pager
	file FileID
	root int64
	cap  int // max entries per node
	n    int // live keys

	logicalBytes units.Bytes // sum of entry sizes the workload asked to write
}

// NewBTree creates an empty tree backed by pg. The node fan-out follows the
// page size; tiny pages (tests use 256 B) force deep trees and frequent
// splits, big pages behave like a production index.
func NewBTree(pg *Pager) *BTree {
	capEntries := int((pg.PageSize() - btreeHeader) / btreeEntry)
	if capEntries < 4 {
		capEntries = 4
	}
	t := &BTree{pg: pg, file: pg.NewFile(), cap: capEntries}
	root := pg.AllocPin(t.file, &bnode{leaf: true, next: -1})
	t.root = root.Index()
	root.Unpin(true)
	return t
}

// Name implements Engine.
func (t *BTree) Name() string { return "btree" }

func (t *BTree) node(pg *Page) *bnode { return pg.Data().(*bnode) }

// Insert adds or overwrites key.
func (t *BTree) Insert(key, val uint64) {
	t.logicalBytes += btreeEntry
	midKey, rightIdx, grew := t.insertAt(t.root, key, val)
	if !grew {
		return
	}
	// Root split: new interior root over the two halves.
	newRoot := t.pg.AllocPin(t.file, &bnode{
		keys: []uint64{midKey},
		kids: []int64{t.root, rightIdx},
		next: -1,
	})
	t.root = newRoot.Index()
	newRoot.Unpin(true)
}

// insertAt inserts into the subtree rooted at page idx. When the node
// splits it returns the separator key and the new right sibling's page.
func (t *BTree) insertAt(idx int64, key, val uint64) (midKey uint64, rightIdx int64, grew bool) {
	pg := t.pg.Pin(t.file, idx)
	n := t.node(pg)
	if n.leaf {
		pos := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if pos < len(n.keys) && n.keys[pos] == key {
			n.vals[pos] = val
			pg.Unpin(true)
			return 0, 0, false
		}
		n.keys = insertU64(n.keys, pos, key)
		n.vals = insertU64(n.vals, pos, val)
		t.n++
		if len(n.keys) <= t.cap {
			pg.Unpin(true)
			return 0, 0, false
		}
		midKey, rightIdx = t.splitLeaf(n)
		pg.Unpin(true)
		return midKey, rightIdx, true
	}

	pos := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	childMid, childRight, childGrew := t.insertAt(n.kids[pos], key, val)
	if !childGrew {
		pg.Unpin(false)
		return 0, 0, false
	}
	n.keys = insertU64(n.keys, pos, childMid)
	n.kids = insertI64(n.kids, pos+1, childRight)
	if len(n.keys) <= t.cap {
		pg.Unpin(true)
		return 0, 0, false
	}
	midKey, rightIdx = t.splitInterior(n)
	pg.Unpin(true)
	return midKey, rightIdx, true
}

// splitLeaf moves the upper half of n into a fresh right sibling and
// returns the first right key as separator.
func (t *BTree) splitLeaf(n *bnode) (midKey uint64, rightIdx int64) {
	half := len(n.keys) / 2
	right := &bnode{
		leaf: true,
		keys: append([]uint64(nil), n.keys[half:]...),
		vals: append([]uint64(nil), n.vals[half:]...),
		next: n.next,
	}
	rp := t.pg.AllocPin(t.file, right)
	n.keys = n.keys[:half:half]
	n.vals = n.vals[:half:half]
	n.next = rp.Index()
	midKey = right.keys[0]
	rightIdx = rp.Index()
	rp.Unpin(true)
	return midKey, rightIdx
}

// splitInterior moves the upper half of n into a fresh right sibling,
// promoting the middle key.
func (t *BTree) splitInterior(n *bnode) (midKey uint64, rightIdx int64) {
	half := len(n.keys) / 2
	midKey = n.keys[half]
	right := &bnode{
		keys: append([]uint64(nil), n.keys[half+1:]...),
		kids: append([]int64(nil), n.kids[half+1:]...),
		next: -1,
	}
	rp := t.pg.AllocPin(t.file, right)
	n.keys = n.keys[:half:half]
	n.kids = n.kids[: half+1 : half+1]
	rightIdx = rp.Index()
	rp.Unpin(true)
	return midKey, rightIdx
}

// Lookup returns the value stored under key.
func (t *BTree) Lookup(key uint64) (uint64, bool) {
	idx := t.root
	for {
		pg := t.pg.Pin(t.file, idx)
		n := t.node(pg)
		if n.leaf {
			pos := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
			var v uint64
			ok := pos < len(n.keys) && n.keys[pos] == key
			if ok {
				v = n.vals[pos]
			}
			pg.Unpin(false)
			return v, ok
		}
		pos := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		idx = n.kids[pos]
		pg.Unpin(false)
	}
}

// Scan visits live pairs in ascending key order starting at lo, calling
// fn for each until fn returns false or keys run out. It walks the leaf
// sibling chain, so long scans read consecutive leaf pages.
func (t *BTree) Scan(lo uint64, fn func(k, v uint64) bool) {
	idx := t.root
	for {
		pg := t.pg.Pin(t.file, idx)
		n := t.node(pg)
		if n.leaf {
			pg.Unpin(false)
			break
		}
		pos := sort.Search(len(n.keys), func(i int) bool { return lo < n.keys[i] })
		idx = n.kids[pos]
		pg.Unpin(false)
	}
	for idx != -1 {
		pg := t.pg.Pin(t.file, idx)
		n := t.node(pg)
		pos := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= lo })
		for ; pos < len(n.keys); pos++ {
			if !fn(n.keys[pos], n.vals[pos]) {
				pg.Unpin(false)
				return
			}
		}
		idx = n.next
		pg.Unpin(false)
	}
}

// Delete removes key, rebalancing by borrow-or-merge so no node (root
// aside) falls under half occupancy. It reports whether the key existed.
func (t *BTree) Delete(key uint64) bool {
	t.logicalBytes += btreeEntry
	removed, _ := t.deleteAt(t.root, key)
	if !removed {
		return false
	}
	t.n--
	// Collapse a childless interior root.
	pg := t.pg.Pin(t.file, t.root)
	n := t.node(pg)
	if !n.leaf && len(n.keys) == 0 {
		t.root = n.kids[0]
	}
	pg.Unpin(false)
	return true
}

func (t *BTree) minKeys() int { return t.cap / 2 }

// deleteAt removes key from the subtree at page idx; underflow reports the
// node fell below half occupancy so the parent can rebalance it.
func (t *BTree) deleteAt(idx int64, key uint64) (removed, underflow bool) {
	pg := t.pg.Pin(t.file, idx)
	n := t.node(pg)
	if n.leaf {
		pos := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if pos >= len(n.keys) || n.keys[pos] != key {
			pg.Unpin(false)
			return false, false
		}
		n.keys = append(n.keys[:pos], n.keys[pos+1:]...)
		n.vals = append(n.vals[:pos], n.vals[pos+1:]...)
		pg.Unpin(true)
		return true, len(n.keys) < t.minKeys()
	}

	pos := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	removed, childUnder := t.deleteAt(n.kids[pos], key)
	if !removed {
		pg.Unpin(false)
		return false, false
	}
	if !childUnder {
		pg.Unpin(false)
		return true, false
	}
	t.rebalance(n, pos)
	pg.Unpin(true)
	return true, len(n.keys) < t.minKeys()
}

// rebalance fixes the underfull child at kids[pos] by borrowing from a
// sibling when one has spare entries, merging otherwise.
func (t *BTree) rebalance(parent *bnode, pos int) {
	child := t.pg.Pin(t.file, parent.kids[pos])
	c := t.node(child)

	// Try borrowing from the left sibling.
	if pos > 0 {
		left := t.pg.Pin(t.file, parent.kids[pos-1])
		l := t.node(left)
		if len(l.keys) > t.minKeys() {
			if c.leaf {
				last := len(l.keys) - 1
				c.keys = insertU64(c.keys, 0, l.keys[last])
				c.vals = insertU64(c.vals, 0, l.vals[last])
				l.keys = l.keys[:last]
				l.vals = l.vals[:last]
				parent.keys[pos-1] = c.keys[0]
			} else {
				last := len(l.keys) - 1
				c.keys = insertU64(c.keys, 0, parent.keys[pos-1])
				c.kids = insertI64(c.kids, 0, l.kids[last+1])
				parent.keys[pos-1] = l.keys[last]
				l.keys = l.keys[:last]
				l.kids = l.kids[:last+1]
			}
			left.Unpin(true)
			child.Unpin(true)
			return
		}
		left.Unpin(false)
	}

	// Try borrowing from the right sibling.
	if pos < len(parent.kids)-1 {
		right := t.pg.Pin(t.file, parent.kids[pos+1])
		r := t.node(right)
		if len(r.keys) > t.minKeys() {
			if c.leaf {
				c.keys = append(c.keys, r.keys[0])
				c.vals = append(c.vals, r.vals[0])
				r.keys = r.keys[1:]
				r.vals = r.vals[1:]
				parent.keys[pos] = r.keys[0]
			} else {
				c.keys = append(c.keys, parent.keys[pos])
				c.kids = append(c.kids, r.kids[0])
				parent.keys[pos] = r.keys[0]
				r.keys = r.keys[1:]
				r.kids = r.kids[1:]
			}
			right.Unpin(true)
			child.Unpin(true)
			return
		}
		right.Unpin(false)
	}

	// Merge with a sibling. Prefer absorbing the right sibling into child;
	// at the rightmost position, absorb child into the left sibling.
	if pos < len(parent.kids)-1 {
		right := t.pg.Pin(t.file, parent.kids[pos+1])
		r := t.node(right)
		if c.leaf {
			c.keys = append(c.keys, r.keys...)
			c.vals = append(c.vals, r.vals...)
			c.next = r.next
		} else {
			c.keys = append(c.keys, parent.keys[pos])
			c.keys = append(c.keys, r.keys...)
			c.kids = append(c.kids, r.kids...)
		}
		parent.keys = append(parent.keys[:pos], parent.keys[pos+1:]...)
		parent.kids = append(parent.kids[:pos+1], parent.kids[pos+2:]...)
		right.Unpin(true) // page becomes garbage; a real tree would free-list it
		child.Unpin(true)
		return
	}

	left := t.pg.Pin(t.file, parent.kids[pos-1])
	l := t.node(left)
	if c.leaf {
		l.keys = append(l.keys, c.keys...)
		l.vals = append(l.vals, c.vals...)
		l.next = c.next
	} else {
		l.keys = append(l.keys, parent.keys[pos-1])
		l.keys = append(l.keys, c.keys...)
		l.kids = append(l.kids, c.kids...)
	}
	parent.keys = parent.keys[:pos-1]
	parent.kids = parent.kids[:pos]
	left.Unpin(true)
	child.Unpin(true)
}

// Flush checkpoints all dirty pages.
func (t *BTree) Flush() { t.pg.FlushAll() }

// Stats implements Engine.
func (t *BTree) Stats() Stats {
	return Stats{
		Engine:       t.Name(),
		Keys:         t.n,
		LogicalBytes: t.logicalBytes,
		WrittenBytes: t.pg.WriteBytes(),
		PageReads:    t.pg.PageReads(),
		PageWrites:   t.pg.PageWrites(),
	}
}

// checkInvariants walks the whole tree validating B+tree structure: sorted
// keys everywhere, occupancy bounds, separator correctness, uniform leaf
// depth, and an intact sibling chain. Tests call it after every batch of
// ops; the error message pinpoints the violating page.
func (t *BTree) checkInvariants() error {
	leafDepth := -1
	var prevLeaf int64 = -1
	var walk func(idx int64, depth int, min, max uint64, isRoot bool) error
	walk = func(idx int64, depth int, min, max uint64, isRoot bool) error {
		pg := t.pg.Pin(t.file, idx)
		defer pg.Unpin(false)
		n := t.node(pg)
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("page %d: keys out of order at %d", idx, i)
			}
		}
		for i, k := range n.keys {
			if k < min || k >= max {
				return fmt.Errorf("page %d: key %d=%d outside [%d,%d)", idx, i, k, min, max)
			}
		}
		if len(n.keys) > t.cap {
			return fmt.Errorf("page %d: %d keys over cap %d", idx, len(n.keys), t.cap)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("page %d: leaf depth %d != %d", idx, depth, leafDepth)
			}
			if len(n.vals) != len(n.keys) {
				return fmt.Errorf("page %d: %d vals for %d keys", idx, len(n.vals), len(n.keys))
			}
			if !isRoot && len(n.keys) < t.minKeys() {
				return fmt.Errorf("page %d: leaf underfull (%d < %d)", idx, len(n.keys), t.minKeys())
			}
			if prevLeaf != -1 {
				// Scan order must match the sibling chain.
				prev := t.pg.Pin(t.file, prevLeaf)
				pn := t.node(prev)
				chained := pn.next
				prev.Unpin(false)
				if chained != idx {
					return fmt.Errorf("page %d: sibling chain broken (prev %d links to %d)", idx, prevLeaf, chained)
				}
			}
			prevLeaf = idx
			return nil
		}
		if len(n.kids) != len(n.keys)+1 {
			return fmt.Errorf("page %d: %d kids for %d keys", idx, len(n.kids), len(n.keys))
		}
		if !isRoot && len(n.keys) < t.minKeys() {
			return fmt.Errorf("page %d: interior underfull (%d < %d)", idx, len(n.keys), t.minKeys())
		}
		if isRoot && len(n.keys) < 1 {
			return fmt.Errorf("page %d: interior root with no keys", idx)
		}
		lo := min
		for i, kid := range n.kids {
			hi := max
			if i < len(n.keys) {
				hi = n.keys[i]
			}
			if err := walk(kid, depth+1, lo, hi, false); err != nil {
				return err
			}
			lo = hi
		}
		return nil
	}
	if err := walk(t.root, 0, 0, ^uint64(0), true); err != nil {
		return err
	}
	// Tail of the sibling chain must be open-ended.
	if prevLeaf != -1 {
		pg := t.pg.Pin(t.file, prevLeaf)
		n := t.node(pg)
		next := n.next
		pg.Unpin(false)
		if next != -1 {
			return fmt.Errorf("page %d: last leaf links to %d, want -1", prevLeaf, next)
		}
	}
	return nil
}

func insertU64(s []uint64, pos int, v uint64) []uint64 {
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}

func insertI64(s []int64, pos int, v int64) []int64 {
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}
