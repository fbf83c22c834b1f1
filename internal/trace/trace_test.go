package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mobilestorage/internal/units"
)

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Delete.String() != "delete" {
		t.Error("op names wrong")
	}
	if got := Op(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown op = %q", got)
	}
}

func TestParseOp(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Op
	}{{"read", Read}, {"r", Read}, {"write", Write}, {"w", Write}, {"delete", Delete}, {"d", Delete}} {
		got, err := ParseOp(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseOp(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseOp("bogus"); err == nil {
		t.Error("ParseOp accepted junk")
	}
}

func TestRecordValidate(t *testing.T) {
	ok := Record{Time: 10, Op: Read, Size: 512}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := []Record{
		{Time: -1, Op: Read, Size: 1},
		{Time: 0, Op: Read, Offset: -1, Size: 1},
		{Time: 0, Op: Read, Size: -1},
		{Time: 0, Op: Write, Size: 0},                                 // zero-size write
		{Time: 0, Op: Write, Offset: 9223372036854775000, Size: 1000}, // end overflows int64
		{Time: 0, Op: Read, Offset: math.MaxInt64, Size: 1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	// An end of exactly MaxInt64 still fits.
	if err := (Record{Op: Read, Offset: math.MaxInt64 - 1, Size: 1}).Validate(); err != nil {
		t.Errorf("record ending at MaxInt64 rejected: %v", err)
	}
	// Zero-size deletes are fine (deleting an empty file).
	if err := (Record{Op: Delete}).Validate(); err != nil {
		t.Errorf("zero-size delete rejected: %v", err)
	}
}

func testTrace() *Trace {
	return &Trace{
		Name:      "test",
		BlockSize: 512,
		Records: []Record{
			{Time: 0, Op: Write, File: 1, Offset: 0, Size: 1024},
			{Time: 1000, Op: Read, File: 1, Offset: 512, Size: 512},
			{Time: 2000, Op: Delete, File: 1, Size: 1024},
			{Time: 3000, Op: Write, File: 2, Offset: 0, Size: 2048},
		},
	}
}

func TestTraceValidateAndSort(t *testing.T) {
	tr := testTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	tr.Records[0], tr.Records[3] = tr.Records[3], tr.Records[0]
	if err := tr.Validate(); err == nil {
		t.Error("out-of-order trace accepted")
	}
	tr.BlockSize = 0
	if err := tr.Validate(); err == nil {
		t.Error("zero block size accepted")
	}
}

// TestTraceValidateBlockRoundedEnd pins the limit the layout's block
// rounding sets: an end that rounds up to exactly 2⁶³−1024 at 1 KB blocks is
// accepted, one byte more overflows and is rejected.
func TestTraceValidateBlockRoundedEnd(t *testing.T) {
	last := units.Bytes(math.MaxInt64 - 1023) // 2⁶³ − 1024, a whole block
	for _, c := range []struct {
		offset, size units.Bytes
		ok           bool
	}{
		{last - 100, 100, true},
		{last - 100, 101, false},
		{9223372036854775000, 100, false},
	} {
		tr := &Trace{Name: "evil", BlockSize: units.KB, Records: []Record{
			{Op: Write, File: 1, Offset: c.offset, Size: c.size},
		}}
		err := tr.Validate()
		if c.ok && err != nil {
			t.Errorf("end %d rejected: %v", c.offset+c.size, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "rounded up")) {
			t.Errorf("end %d: err = %v, want the block-rounding overflow", c.offset+c.size, err)
		}
	}
}

func TestWarmSplit(t *testing.T) {
	tr := testTrace()
	if got := tr.WarmSplit(0.25); got != 1 {
		t.Errorf("WarmSplit(0.25) = %d, want 1", got)
	}
	if got := tr.WarmSplit(0); got != 0 {
		t.Errorf("WarmSplit(0) = %d, want 0", got)
	}
	if got := tr.WarmSplit(1.5); got != len(tr.Records) {
		t.Errorf("WarmSplit(1.5) = %d, want all", got)
	}
}

func TestMaxFileSizes(t *testing.T) {
	tr := testTrace()
	sizes := tr.MaxFileSizes()
	if sizes[1] != 1024 || sizes[2] != 2048 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.BlockSize != tr.BlockSize {
		t.Errorf("header mismatch: %q/%v", got.Name, got.BlockSize)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Errorf("records mismatch:\n got %v\nwant %v", got.Records, tr.Records)
	}
}

// TestCodecRoundTripProperty round-trips randomized traces.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "prop", BlockSize: 512}
		now := units.Time(0)
		for i := 0; i < int(n); i++ {
			now += units.Time(rng.Intn(1000))
			op := Op(rng.Intn(3))
			size := units.Bytes(rng.Intn(4096))
			if op != Delete {
				size++ // reads/writes must be non-empty
			}
			tr.Records = append(tr.Records, Record{
				Time: now, Op: op,
				File:   uint32(rng.Intn(10)),
				Offset: units.Bytes(rng.Intn(8192)),
				Size:   size,
			})
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Records, tr.Records) || (len(got.Records) == 0 && len(tr.Records) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",                                   // no header
		"trace x\n",                          // malformed header
		"trace x blocksize=0\n",              // bad block size
		"trace x blocksize=512\n1 r\n",       // short record
		"trace x blocksize=512\nz r 1 0 1\n", // bad time
		"trace x blocksize=512\n1 q 1 0 1\n", // bad op
		"trace x blocksize=512\n2 r 1 0 1\n1 r 1 0 1\n", // unsorted
	}
	for i, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

// FuzzDecodeText requires that any input that decodes re-encodes and
// decodes to the same trace, and that decoding stays within
// decodeAllocBound.
func FuzzDecodeText(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, testTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("trace evil blocksize=1024\n0 w 1 9223372036854775000 1000\n"))
	f.Add([]byte("# c\n\ntrace t blocksize=512\n# mid\n5 w 1 0 512\n7 d 1 0 0\n"))
	f.Add([]byte("trace x blocksize=512\n2 r 1 0 1\n1 r 1 0 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeBounded(t, data, Decode)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Encode(&out, tr); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		again, err := Decode(&out)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again, tr)
		}
	})
}

func TestDecodeSkipsComments(t *testing.T) {
	in := "# hello\n\ntrace t blocksize=512\n# mid\n5 w 1 0 512\n"
	got, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 1 || got.Records[0].Op != Write {
		t.Errorf("records = %v", got.Records)
	}
}

// TestDecodeAllocBoundLargeText decodes 1 MB of minimal text records, the
// input with the most records per byte, within decodeAllocBound: the
// fuzzers' inputs stay small, so this is where the per-byte term binds.
func TestDecodeAllocBoundLargeText(t *testing.T) {
	var b strings.Builder
	b.WriteString("trace t blocksize=512\n")
	for b.Len() < 1<<20 {
		b.WriteString("0 r 1 0 1\n")
	}
	tr, err := decodeBounded(t, []byte(b.String()), Decode)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) < 100_000 {
		t.Fatalf("decoded %d records", len(tr.Records))
	}
}
