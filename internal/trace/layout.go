package trace

import (
	"fmt"

	"mobilestorage/internal/units"
)

// Layout maps file IDs to disk locations, converting file-level trace
// accesses into device-level (byte-address) operations. This mirrors the
// paper's preprocessing step: "The traces were preprocessed to convert
// file-level accesses into disk-level operations, by associating a unique
// disk location with each file" (§4.1).
//
// Files are placed first-touch, contiguously, rounded up to whole blocks.
// Deleted files release their extent to a free list that is reused
// first-fit, so the dos and synth traces (which contain deletions) do not
// grow the address space without bound.
//
// File IDs are dense small integers in every real workload, so extents live
// in a flat slice indexed by file ID — the map lookup this replaces was the
// single hottest operation in whole-trace replays. IDs past denseFileLimit
// (possible only in adversarial/fuzzed traces) spill to a map so behavior
// is unchanged for arbitrary inputs. RefLayout keeps the original map-only
// implementation for differential testing.
type Layout struct {
	blockSize units.Bytes
	next      units.Bytes
	// dense[f] holds file f's extent; size > 0 marks presence (allocate
	// never returns an empty extent). Grown on demand, never beyond
	// denseFileLimit entries.
	dense []extent
	// sparse holds extents for file IDs ≥ denseFileLimit; nil until needed.
	sparse map[uint32]extent
	free   []extent // sorted by offset, coalesced
}

// denseFileLimit bounds the dense extent table: IDs below it index a slice,
// IDs at or above it fall back to a map. 1M entries × 16 bytes caps the
// dense table at 16 MB, and it only grows as far as the largest ID seen.
const denseFileLimit = 1 << 20

type extent struct {
	off, size units.Bytes
}

// NewLayout builds a layout that rounds file extents to blockSize.
func NewLayout(blockSize units.Bytes) *Layout {
	if blockSize <= 0 {
		panic("trace: layout block size must be positive")
	}
	return &Layout{blockSize: blockSize}
}

// Place returns the device byte address of (file, offset), allocating an
// extent the first time a file is seen. The size hint must be the file's
// maximum extent (from Trace.MaxFileSizes) so the allocation is stable
// across the whole trace.
func (l *Layout) Place(file uint32, offset, sizeHint units.Bytes) units.Bytes {
	if uint64(file) < uint64(len(l.dense)) {
		if e := l.dense[file]; e.size > 0 {
			if offset > e.size {
				panic(fmt.Sprintf("trace: file %d accessed at %d beyond hinted extent %d", file, offset, e.size))
			}
			return e.off + offset
		}
	}
	return l.placeSlow(file, offset, sizeHint)
}

// placeSlow handles first placement and spilled file IDs.
func (l *Layout) placeSlow(file uint32, offset, sizeHint units.Bytes) units.Bytes {
	e, ok := l.lookup(file)
	if !ok {
		e = refAllocate(&l.free, &l.next, roundUp(sizeHint, l.blockSize), l.blockSize)
		l.store(file, e)
	}
	if offset > e.size {
		// The hint must cover all accesses; failing this indicates the
		// caller computed sizes from a different trace.
		panic(fmt.Sprintf("trace: file %d accessed at %d beyond hinted extent %d", file, offset, e.size))
	}
	return e.off + offset
}

// Extent returns the placement of a file, if it has one.
func (l *Layout) Extent(file uint32) (off, size units.Bytes, ok bool) {
	e, found := l.lookup(file)
	return e.off, e.size, found
}

// Delete releases a file's extent for reuse. Deleting an unplaced file is a
// no-op (a trace may delete a file it never read or wrote).
func (l *Layout) Delete(file uint32) {
	e, ok := l.lookup(file)
	if !ok {
		return
	}
	if file < denseFileLimit {
		l.dense[file] = extent{}
	} else {
		delete(l.sparse, file)
	}
	refRelease(&l.free, e)
}

// HighWater returns one past the highest byte address ever allocated: the
// device capacity needed to replay the trace.
func (l *Layout) HighWater() units.Bytes { return l.next }

func (l *Layout) lookup(file uint32) (extent, bool) {
	if file < denseFileLimit {
		if uint64(file) < uint64(len(l.dense)) {
			e := l.dense[file]
			return e, e.size > 0
		}
		return extent{}, false
	}
	e, ok := l.sparse[file]
	return e, ok
}

func (l *Layout) store(file uint32, e extent) {
	if file < denseFileLimit {
		if int(file) >= len(l.dense) {
			if int(file) < cap(l.dense) {
				// The tail of the backing array is always zero: writes only
				// land below len, and Delete zeroes in place.
				l.dense = l.dense[:file+1]
			} else {
				n := 2 * cap(l.dense)
				if n < 64 {
					n = 64
				}
				if int(file) >= n {
					n = int(file) + 1
				}
				grown := make([]extent, int(file)+1, n)
				copy(grown, l.dense)
				l.dense = grown
			}
		}
		l.dense[file] = e
		return
	}
	if l.sparse == nil {
		l.sparse = make(map[uint32]extent)
	}
	l.sparse[file] = e
}

func roundUp(v, to units.Bytes) units.Bytes {
	if v <= 0 {
		return to
	}
	return units.CeilDiv(v, to) * to
}
