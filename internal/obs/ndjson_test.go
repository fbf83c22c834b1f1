package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refEmit is NDJSONSink.Emit as it was before the sink built each line in
// a reused buffer, frozen as the byte-for-byte oracle for
// FuzzNDJSONSinkBytes. It writes the line's pieces to b one at a time.
// Never optimize it: its job is to stay simple enough to audit by eye.
func refEmit(b *bufio.Writer, e Event) {
	var buf [24]byte
	b.WriteString(`{"t_us":`)
	b.Write(strconv.AppendInt(buf[:0], e.T, 10))
	b.WriteString(kindMember(e.Kind))
	if e.Dev != "" {
		b.WriteString(`,"dev":"`)
		b.WriteString(e.Dev) // device names are catalog identifiers
		b.WriteByte('"')
	}
	if e.Addr != 0 {
		b.WriteString(`,"addr":`)
		b.Write(strconv.AppendInt(buf[:0], e.Addr, 10))
	}
	if e.Size != 0 {
		b.WriteString(`,"size":`)
		b.Write(strconv.AppendInt(buf[:0], e.Size, 10))
	}
	if e.Dur != 0 {
		b.WriteString(`,"dur_us":`)
		b.Write(strconv.AppendInt(buf[:0], e.Dur, 10))
	}
	b.WriteString("}\n")
}

// fuzzEvents decodes data into events. Each event takes a kind byte (any
// of 0–255: named kinds, KindOther and unnamed values), a mode byte whose
// four bit pairs pick T, Addr, Size and Dur from 0, MinInt64, MaxInt64 or
// the next eight bytes as an int64, and a length byte followed by that many
// bytes (mod 24) of Dev mapped to printable ASCII.
func fuzzEvents(data []byte) []Event {
	next := func(n int) []byte {
		var word [8]byte
		k := copy(word[:n], data)
		data = data[k:]
		return word[:n]
	}
	var evs []Event
	for len(data) > 0 {
		hdr := next(2)
		e := Event{Kind: Kind(hdr[0])}
		for i, f := range []*int64{&e.T, &e.Addr, &e.Size, &e.Dur} {
			switch hdr[1] >> (2 * i) & 3 {
			case 1:
				*f = math.MinInt64
			case 2:
				*f = math.MaxInt64
			case 3:
				*f = int64(binary.LittleEndian.Uint64(next(8)))
			}
		}
		name := make([]byte, next(1)[0]%24)
		for i := range name {
			name[i] = ' ' + next(1)[0]%95
		}
		e.Dev = string(name)
		evs = append(evs, e)
	}
	return evs
}

// FuzzNDJSONSinkBytes replays a fuzz-decoded event sequence, cyclically,
// through an NDJSONSink and through refEmit until the stream is three
// times bufio's 4,096-byte buffer, so lines straddle its flush boundary at
// shifting offsets; the two byte streams must be identical.
func FuzzNDJSONSinkBytes(f *testing.F) {
	word := func(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	f.Add([]byte{})
	f.Add(append([]byte{byte(EvCardClean), 0xff}, bytes.Join([][]byte{word(51234000), word(17), word(98), word(1742318), {9}, []byte("flashcard")}, nil)...))
	f.Add([]byte{byte(EvDiskSpinUp), 0b01_10_01_10, 5, 'c', 'u', '1', '4', '0'})
	f.Add(append([]byte{byte(KindOther), 0xff}, bytes.Join([][]byte{word(-1), word(-512), word(math.MinInt64 + 1), word(-7), {23}, bytes.Repeat([]byte{'~'}, 23)}, nil)...))
	f.Add([]byte{200, 0b11_11_11_11, 255, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{0, 0, 0, byte(numKinds), 0, 1, '"', 255, 0xaa, 3, '\\', '\n', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := fuzzEvents(data)
		if len(evs) == 0 {
			evs = []Event{{}}
		}
		var got, want bytes.Buffer
		sink := NewNDJSONSink(&got)
		ref := bufio.NewWriter(&want)
		for i := 0; want.Len()+ref.Buffered() < 3*4096; i++ {
			e := evs[i%len(evs)]
			sink.Emit(e)
			refEmit(ref, e)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			i := 0
			for i < min(got.Len(), want.Len()) && got.Bytes()[i] == want.Bytes()[i] {
				i++
			}
			t.Fatalf("sink and reference differ at byte %d of %d/%d:\n got %q\nwant %q",
				i, got.Len(), want.Len(), got.Bytes()[max(0, i-40):min(got.Len(), i+40)],
				want.Bytes()[max(0, i-40):min(want.Len(), i+40)])
		}
	})
}

// TestNDJSONSinkNoAlloc: the sink writes an event of a named kind with
// every field set without allocating.
func TestNDJSONSinkNoAlloc(t *testing.T) {
	s := NewNDJSONSink(io.Discard)
	e := Event{T: math.MaxInt64, Kind: EvCardClean, Dev: "intel-datasheet",
		Addr: math.MinInt64, Size: -98, Dur: 1742318}
	if allocs := testing.AllocsPerRun(1000, func() { s.Emit(e) }); allocs != 0 {
		t.Errorf("NDJSONSink.Emit allocates %.1f times per event, want 0", allocs)
	}
}

// TestNDJSONSinkLongLine: a line longer than the room Emit keeps free,
// written between ordinary lines, comes out as refEmit writes it.
func TestNDJSONSinkLongLine(t *testing.T) {
	long := Event{T: math.MaxInt64, Kind: EvCardClean, Dev: strings.Repeat("d", 300),
		Addr: math.MinInt64, Size: -98, Dur: 1742318}
	if len(long.Dev) <= emitRoom {
		t.Fatalf("a %d-byte device name fits the %d-byte room", len(long.Dev), emitRoom)
	}
	var got, want bytes.Buffer
	sink := NewNDJSONSink(&got)
	ref := bufio.NewWriter(&want)
	for i := 0; want.Len()+ref.Buffered() < 3*4096; i++ {
		e := Event{T: int64(i), Kind: EvDiskSpinUp, Dev: "cu140", Dur: 5000}
		if i%7 == 3 {
			e = long
		}
		sink.Emit(e)
		refEmit(ref, e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("sink wrote %d bytes, reference %d, and they differ", got.Len(), want.Len())
	}
}

// errWriteFailed is failAfterFirst's error.
var errWriteFailed = errors.New("write failed")

// failAfterFirst accepts its first write and fails every later one.
type failAfterFirst struct{ writes int }

func (w *failAfterFirst) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestNDJSONSinkFlushReportsWriteError: the flush inside Emit drops its
// error, so the writer must keep it for Flush to return, however many
// lines are emitted after it.
func TestNDJSONSinkFlushReportsWriteError(t *testing.T) {
	w := &failAfterFirst{}
	sink := NewNDJSONSink(w)
	// 220 lines of 75 bytes fill the 4,096-byte buffer four times.
	e := Event{T: 1742318, Kind: EvCardErase, Dev: "intel", Addr: 17, Size: 3}
	for i := 0; i < 220; i++ {
		sink.Emit(e)
	}
	if w.writes < 2 {
		t.Fatalf("the writer saw %d writes, want the buffer flushed at least twice", w.writes)
	}
	if err := sink.Flush(); !errors.Is(err, errWriteFailed) {
		t.Errorf("Flush = %v, want %v", err, errWriteFailed)
	}
}
