package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mobilestorage/internal/units"
)

// refValidate is Trace.Validate as it stood before its loop indexed the
// records in place and tested each with one combined condition: every
// record through Record.Validate, then the block-rounding limit, then the
// time order. It is frozen as the oracle for the fast loop.
func refValidate(t *Trace) error {
	if t.BlockSize <= 0 {
		return fmt.Errorf("trace %q: non-positive block size %d", t.Name, t.BlockSize)
	}
	maxEnd := math.MaxInt64 - (t.BlockSize - 1)
	var prev units.Time
	for i, r := range t.Records {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("trace %q record %d: %w", t.Name, i, err)
		}
		if end := r.End(); end > maxEnd {
			return fmt.Errorf("trace %q record %d: end %d overflows when rounded up to %d-byte blocks", t.Name, i, end, t.BlockSize)
		}
		if r.Time < prev {
			return fmt.Errorf("trace %q record %d: time goes backwards (%d < %d)", t.Name, i, r.Time, prev)
		}
		prev = r.Time
	}
	return nil
}

// refMaxFileExtents is Trace.MaxFileExtents as it stood before its loop
// indexed the records in place, frozen as the oracle for it.
func refMaxFileExtents(t *Trace) *FileSizes {
	s := &FileSizes{}
	for _, r := range t.Records {
		end := r.End()
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

// edgeFiles are file IDs on both sides of the dense extent table's bound.
// The last one grows the dense table to its full 8 MB, so genTrace draws it
// only in a few traces.
var edgeFiles = []uint32{0, 1, 2, 7, 1000, denseFileLimit, denseFileLimit + 1, math.MaxUint32, denseFileLimit - 1}

// genTrace builds a trace from choose, which returns a value in [0, n).
// Block sizes are odd, even and powers of two up to MaxInt64, plus
// non-positive ones. Most records are valid, with non-decreasing times,
// small extents and zero-size deletes among them. About one in eight has
// one field moved to an edge: a time that runs backwards or is negative or
// maximal, an offset or size that is negative, zero, at the block-rounding
// limit maxEnd or one past it, or at MaxInt64.
func genTrace(choose func(n int) int) *Trace {
	blockSizes := []units.Bytes{1, 3, 512, 1000, 1023, 1024, 4096, 1 << 40, math.MaxInt64, 0, -512}
	bs := blockSizes[choose(len(blockSizes))]
	maxEnd := math.MaxInt64 - (bs - 1)
	t := &Trace{Name: "edge", BlockSize: bs}
	var now units.Time
	files := edgeFiles[:len(edgeFiles)-1]
	if choose(128) == 0 {
		files = edgeFiles
	}
	n := choose(32)
	for i := 0; i < n; i++ {
		r := Record{File: files[choose(len(files))]}
		switch c := choose(8); {
		case c < 2:
			r.Op = Read
		case c < 5:
			r.Op = Write
		case c < 7:
			r.Op = Delete
		default:
			r.Op = Op(3 + choose(253))
		}
		r.Time = now + units.Time(choose(3))
		r.Offset = units.Bytes(choose(4096))
		r.Size = 1 + units.Bytes(choose(2048))
		if r.Op == Delete && choose(2) == 0 {
			r.Size = 0
		}
		if choose(8) == 0 {
			switch choose(3) {
			case 0:
				times := []units.Time{now - 1, now - units.Time(1+choose(3)), -1, math.MinInt64, math.MaxInt64}
				r.Time = times[choose(len(times))]
			case 1:
				offs := []units.Bytes{-1, math.MinInt64, 0, maxEnd, maxEnd - 1, maxEnd + 1, math.MaxInt64, math.MaxInt64 - 1}
				r.Offset = offs[choose(len(offs))]
			default:
				sizes := []units.Bytes{0, -1, math.MinInt64, maxEnd - r.Offset, maxEnd - r.Offset + 1,
					math.MaxInt64 - r.Offset, math.MaxInt64 - r.Offset + 1, math.MaxInt64}
				r.Size = sizes[choose(len(sizes))]
			}
		}
		if r.Time > now {
			now = r.Time
		}
		t.Records = append(t.Records, r)
	}
	return t
}

// checkMatchesReference fails unless Validate returns the frozen copy's
// error, text and record index included, and MaxFileExtents the same Get
// for every file ID, on both sides of denseFileLimit.
func checkMatchesReference(t *testing.T, tr *Trace) {
	t.Helper()
	got, want := tr.Validate(), refValidate(tr)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("Validate = %v, reference %v; records %+v", got, want, tr.Records)
	}
	gs, ws := tr.MaxFileExtents(), refMaxFileExtents(tr)
	for _, f := range edgeFiles {
		if g, w := gs.Get(f), ws.Get(f); g != w {
			t.Fatalf("file %d: Get = %d, reference %d; records %+v", f, g, w, tr.Records)
		}
	}
}

// The fast Validate and MaxFileExtents agree with their frozen copies on
// seeded edge traces, with valid ones, first errors deep in a trace and
// every error kind among them.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	valid, kinds := 0, map[string]bool{}
	for i := 0; i < 20000; i++ {
		tr := genTrace(rng.Intn)
		checkMatchesReference(t, tr)
		if err := refValidate(tr); err == nil {
			valid++
		} else {
			for _, k := range []string{"non-positive block size", "negative time", "negative offset", "negative size",
				"overflows when rounded", "plus size", "zero-size", "time goes backwards"} {
				if strings.Contains(err.Error(), k) {
					kinds[k] = true
				}
			}
		}
	}
	if valid < 1000 || len(kinds) != 8 {
		t.Errorf("%d valid traces and error kinds %v: the generator misses a case", valid, kinds)
	}
}

// FuzzValidateMatchesReference drives genTrace's choices from the fuzzer's
// bytes (zero once they run out), so coverage guidance steers the edge
// fields, block sizes and record order.
func FuzzValidateMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 8, 0, 1, 3, 0, 0, 0, 0, 4, 1, 9, 9, 9, 0, 0, 5})
	f.Add([]byte{8, 20, 3, 5, 2, 200, 7, 0, 1, 0, 3, 0, 1, 2, 0, 0, 1, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		choose := func(n int) int {
			v := 0
			for k := n - 1; k > 0; k >>= 8 {
				v = v<<8 | next()
			}
			return v % n
		}
		checkMatchesReference(t, genTrace(choose))
	})
}
