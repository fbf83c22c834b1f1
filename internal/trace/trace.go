// Package trace defines the file-level I/O trace format the simulator
// consumes, mirroring the traces used in the paper (§4.1): each record says
// which file is accessed, whether the operation is a read, write, or delete,
// the location within the file, the size of the transfer, and the time of
// the access.
//
// Like the paper, file-level traces are preprocessed into disk-level
// operations by associating a unique disk location with each file
// (see Layout). Records retain the file ID so device models can apply the
// paper's "repeated accesses to the same file never seek" assumption.
package trace

import (
	"fmt"
	"math"

	"mobilestorage/internal/units"
)

// Op is the operation type of a trace record.
type Op uint8

// Operation kinds. Delete removes a whole file (the dos and synth traces
// include deletions; mac and hp do not).
const (
	Read Op = iota
	Write
	Delete
)

// String returns "read", "write", or "delete".
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ParseOp converts a string produced by Op.String back into an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "read", "r":
		return Read, nil
	case "write", "w":
		return Write, nil
	case "delete", "d":
		return Delete, nil
	}
	return 0, fmt.Errorf("trace: unknown op %q", s)
}

// Record is one file-level trace event.
type Record struct {
	// Time is the arrival instant of the operation.
	Time units.Time
	// Op is the operation type.
	Op Op
	// File identifies the file accessed. File IDs are dense small integers.
	File uint32
	// Offset is the byte offset within the file (0 for Delete).
	Offset units.Bytes
	// Size is the transfer size in bytes (whole file size for Delete, which
	// lets device models invalidate the right extent).
	Size units.Bytes
}

// End returns the first byte past the accessed range.
func (r Record) End() units.Bytes { return r.Offset + r.Size }

// Validate reports structural problems with a record.
func (r Record) Validate() error {
	if r.Time < 0 {
		return fmt.Errorf("trace: negative time %d", r.Time)
	}
	if r.Offset < 0 {
		return fmt.Errorf("trace: negative offset %d", r.Offset)
	}
	if r.Size < 0 {
		return fmt.Errorf("trace: negative size %d", r.Size)
	}
	if r.Size > math.MaxInt64-r.Offset {
		return fmt.Errorf("trace: offset %d plus size %d overflows", r.Offset, r.Size)
	}
	if r.Op != Delete && r.Size == 0 {
		return fmt.Errorf("trace: zero-size %s", r.Op)
	}
	return nil
}

// Trace is an ordered sequence of records plus the metadata the simulator
// needs to interpret them.
type Trace struct {
	// Name labels the workload ("mac", "dos", "hp", "synth", ...).
	Name string
	// BlockSize is the file-system block size the workload was collected
	// under (Table 3: 1 KB for mac and hp, 0.5 KB for dos).
	BlockSize units.Bytes
	// Records are the events in non-decreasing time order.
	Records []Record
}

// Duration returns the time span from zero to the last record.
func (t *Trace) Duration() units.Time {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].Time
}

// Validate checks every record and the global ordering invariant.
func (t *Trace) Validate() error {
	if t.BlockSize <= 0 {
		return fmt.Errorf("trace %q: non-positive block size %d", t.Name, t.BlockSize)
	}
	// The layout rounds each file up to whole blocks as (end+BlockSize-1),
	// so an end above this limit would overflow during placement.
	maxEnd := math.MaxInt64 - (t.BlockSize - 1)
	var prev units.Time
	recs := t.Records
	for i := range recs {
		r := &recs[i]
		// One test per record, indexed in place: it passes every valid
		// record except a zero-size delete, and flags every record that
		// recordError would reject. Offset is known non-negative before
		// maxEnd-Offset is taken, so the subtraction cannot overflow.
		if r.Time < prev || r.Time < 0 || r.Offset < 0 || r.Size <= 0 || r.Size > maxEnd-r.Offset {
			if err := t.recordError(i, prev, maxEnd); err != nil {
				return err
			}
		}
		prev = r.Time
	}
	return nil
}

// recordError is Validate's full check of record i, run only on the
// records its fast test flags; it returns nil for a record that passes
// after all (a zero-size delete).
func (t *Trace) recordError(i int, prev units.Time, maxEnd units.Bytes) error {
	r := t.Records[i]
	if err := r.Validate(); err != nil {
		return fmt.Errorf("trace %q record %d: %w", t.Name, i, err)
	}
	if end := r.End(); end > maxEnd {
		return fmt.Errorf("trace %q record %d: end %d overflows when rounded up to %d-byte blocks", t.Name, i, end, t.BlockSize)
	}
	if r.Time < prev {
		return fmt.Errorf("trace %q record %d: time goes backwards (%d < %d)", t.Name, i, r.Time, prev)
	}
	return nil
}

// WarmSplit returns the index of the first record belonging to the measured
// portion of the trace: the paper processes the first 10% of each trace to
// warm the buffer cache and reports statistics on the remainder (§4.2).
// The split is by record count.
func (t *Trace) WarmSplit(warmFraction float64) int {
	if warmFraction <= 0 {
		return 0
	}
	if warmFraction >= 1 {
		return len(t.Records)
	}
	return int(float64(len(t.Records)) * warmFraction)
}

// MaxFileSizes returns, per file ID, the largest extent (in bytes) any record
// touches, which the Layout uses to place files on the simulated device.
func (t *Trace) MaxFileSizes() map[uint32]units.Bytes {
	sizes := make(map[uint32]units.Bytes)
	for _, r := range t.Records {
		if end := r.End(); end > sizes[r.File] {
			sizes[r.File] = end
		}
	}
	return sizes
}

// FileSizes is the dense-slice form of MaxFileSizes, built for the
// simulator's per-record hot loop: file IDs below denseFileLimit index a
// flat slice, larger (adversarial) IDs spill to a map. Get returns the same
// value MaxFileSizes' map would for every ID.
type FileSizes struct {
	dense  []units.Bytes
	sparse map[uint32]units.Bytes
}

// Get returns the largest extent any record touches for the file, or 0 for
// a file the trace never touches.
func (s *FileSizes) Get(file uint32) units.Bytes {
	if uint64(file) < uint64(len(s.dense)) {
		return s.dense[file]
	}
	if s.sparse != nil {
		return s.sparse[file]
	}
	return 0
}

// MaxFileExtents returns per-file maximum extents as a FileSizes, the
// allocation-light equivalent of MaxFileSizes.
func (t *Trace) MaxFileExtents() *FileSizes {
	s := &FileSizes{}
	recs := t.Records
	for i := range recs {
		// In place, and End's sum spelled out: a range copy, or End on *r,
		// copies the 32-byte record to the stack first.
		r := &recs[i]
		end := r.Offset + r.Size
		if r.File < denseFileLimit {
			if int(r.File) >= len(s.dense) {
				if int(r.File) < cap(s.dense) {
					s.dense = s.dense[:r.File+1]
				} else {
					n := 2 * cap(s.dense)
					if n < 64 {
						n = 64
					}
					if int(r.File) >= n {
						n = int(r.File) + 1
					}
					grown := make([]units.Bytes, int(r.File)+1, n)
					copy(grown, s.dense)
					s.dense = grown
				}
			}
			if end > s.dense[r.File] {
				s.dense[r.File] = end
			}
			continue
		}
		if s.sparse == nil {
			s.sparse = make(map[uint32]units.Bytes)
		}
		if end > s.sparse[r.File] {
			s.sparse[r.File] = end
		}
	}
	return s
}
