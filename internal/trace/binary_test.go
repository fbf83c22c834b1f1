package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"mobilestorage/internal/units"
)

func TestBinaryRoundTrip(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.BlockSize != tr.BlockSize {
		t.Errorf("header: %q %v", got.Name, got.BlockSize)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Errorf("records mismatch")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "bprop", BlockSize: 512}
		now := units.Time(0)
		for i := 0; i < int(n); i++ {
			now += units.Time(rng.Intn(1_000_000))
			op := Op(rng.Intn(3))
			size := units.Bytes(rng.Intn(64 * 1024))
			if op != Delete {
				size++
			}
			tr.Records = append(tr.Records, Record{
				Time: now, Op: op,
				File:   uint32(rng.Intn(1 << 20)),
				Offset: units.Bytes(rng.Intn(1 << 24)),
				Size:   size,
			})
		}
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, tr); err != nil {
			return false
		}
		got, err := DecodeBinary(&buf)
		if err != nil {
			return false
		}
		if len(tr.Records) == 0 {
			return len(got.Records) == 0
		}
		return reflect.DeepEqual(got.Records, tr.Records)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	// Build a realistic-sized trace and compare encodings.
	tr := &Trace{Name: "size", BlockSize: 512}
	rng := rand.New(rand.NewSource(1))
	now := units.Time(0)
	for i := 0; i < 5000; i++ {
		now += units.Time(rng.Intn(100_000))
		tr.Records = append(tr.Records, Record{
			Time: now, Op: Op(rng.Intn(2)),
			File:   uint32(rng.Intn(500)),
			Offset: units.Bytes(rng.Intn(32)) * 512,
			Size:   units.Bytes(rng.Intn(16)+1) * 512,
		})
	}
	var text, bin bytes.Buffer
	if err := Encode(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := EncodeBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= text.Len()/2 {
		t.Errorf("binary %d B not < half of text %d B", bin.Len(), text.Len())
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,             // empty
		[]byte("XXXXX"), // bad magic
		[]byte("MSTB1"), // truncated after magic
	}
	for i, c := range cases {
		if _, err := DecodeBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// A valid header with a bad op byte.
	var buf bytes.Buffer
	tr := &Trace{Name: "x", BlockSize: 512, Records: []Record{{Time: 1, Op: Write, Size: 512}}}
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the op byte (after magic+namelen+name+blocksize+count+delta).
	idx := bytes.LastIndexByte(b, byte(Write))
	b[idx] = 9
	if _, err := DecodeBinary(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "bad op") {
		t.Errorf("corrupted op accepted: %v", err)
	}
}

// hostileHeader is a valid binary header that claims count records and is
// followed by none.
func hostileHeader(count uint64) []byte {
	b := append([]byte(nil), binaryMagic...)
	b = binary.AppendUvarint(b, 0)   // name length
	b = binary.AppendUvarint(b, 512) // block size
	return binary.AppendUvarint(b, count)
}

// TestBinaryDecodeHostileCount feeds a header that claims 2^30 records and
// then ends: decoding must fail without allocating for the claim (32 GiB at
// 32 bytes per record).
func TestBinaryDecodeHostileCount(t *testing.T) {
	data := hostileHeader(1 << 30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBinary(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated trace accepted")
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
		t.Errorf("decoding a %d-byte header allocated %d bytes", len(data), delta)
	}
}

// decodeAllocBound is the heap a decode of n input bytes may allocate: 64
// bytes per input byte plus a constant that covers the binary decoder's
// fixed 128 KiB record preallocation and the text scanner's 64 KiB buffer.
func decodeAllocBound(n int) uint64 { return uint64(64*n + 256<<10) }

// decodeBounded runs decode on data and fails t when it allocates past
// decodeAllocBound, whatever record count or offsets the input claims.
func decodeBounded(t *testing.T, data []byte, decode func(io.Reader) (*Trace, error)) (*Trace, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := decode(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if alloc, bound := after.TotalAlloc-before.TotalAlloc, decodeAllocBound(len(data)); alloc > bound {
		t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(data), alloc, bound)
	}
	return tr, err
}

// FuzzDecodeBinary requires that any input that decodes re-encodes and
// decodes to the same trace, and that decoding stays within
// decodeAllocBound.
func FuzzDecodeBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, testTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hostileHeader(1 << 30))
	f.Add(hostileHeader(0))
	f.Add([]byte("MSTB1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeBounded(t, data, DecodeBinary)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeBinary(&out, tr); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		again, err := DecodeBinary(&out)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again, tr)
		}
	})
}

func TestBinaryRejectsInvalidTrace(t *testing.T) {
	tr := &Trace{Name: "bad", BlockSize: 0}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err == nil {
		t.Error("invalid trace encoded")
	}
}

func BenchmarkEncodeText(b *testing.B)   { benchCodec(b, false, true) }
func BenchmarkEncodeBinary(b *testing.B) { benchCodec(b, true, true) }
func BenchmarkDecodeText(b *testing.B)   { benchCodec(b, false, false) }
func BenchmarkDecodeBinary(b *testing.B) { benchCodec(b, true, false) }

func benchCodec(b *testing.B, binaryFmt, encode bool) {
	tr := &Trace{Name: "bench", BlockSize: 512}
	rng := rand.New(rand.NewSource(1))
	now := units.Time(0)
	for i := 0; i < 20000; i++ {
		now += units.Time(rng.Intn(100_000))
		tr.Records = append(tr.Records, Record{
			Time: now, Op: Op(rng.Intn(2)), File: uint32(rng.Intn(500)),
			Offset: units.Bytes(rng.Intn(32)) * 512, Size: 512,
		})
	}
	var data bytes.Buffer
	if binaryFmt {
		EncodeBinary(&data, tr)
	} else {
		Encode(&data, tr)
	}
	raw := data.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if encode {
			var buf bytes.Buffer
			if binaryFmt {
				EncodeBinary(&buf, tr)
			} else {
				Encode(&buf, tr)
			}
		} else {
			var err error
			if binaryFmt {
				_, err = DecodeBinary(bytes.NewReader(raw))
			} else {
				_, err = Decode(bytes.NewReader(raw))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestReadTraceBothFormats: ReadFile loads the text and the binary format
// of the same trace, and reports a missing file or a corrupt binary one as
// an error.
func TestReadTraceBothFormats(t *testing.T) {
	tr := testTrace()
	dir := t.TempDir()
	for _, c := range []struct {
		name   string
		encode func(f *os.File) error
	}{
		{"t.trace", func(f *os.File) error { return Encode(f, tr) }},
		{"t.btrace", func(f *os.File) error { return EncodeBinary(f, tr) }},
	} {
		path := filepath.Join(dir, c.name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.encode(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", c.name, err)
		}
		if got.Name != tr.Name || got.BlockSize != tr.BlockSize || !reflect.DeepEqual(got.Records, tr.Records) {
			t.Errorf("%s: read back %+v, want %+v", c.name, got, tr)
		}
	}

	if _, err := ReadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("MSTB1garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Error("corrupt binary accepted")
	}
}
