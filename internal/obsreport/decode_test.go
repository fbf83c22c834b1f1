package obsreport

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"mobilestorage/internal/obs"
)

// readLenient decodes data the way obsreport -lenient does, through
// StreamFiles, and returns the events it delivers with the skip count.
func readLenient(data []byte) ([]obs.Event, int64, error) {
	var events []obs.Event
	collect := reporterFunc(func(e obs.Event) { events = append(events, e) })
	stats, err := StreamFiles([]string{"-"}, StreamOptions{Lenient: true, Stdin: bytes.NewReader(data)}, collect)
	return events, stats.Skipped, err
}

// Round trip: events emitted by the canonical NDJSON sink decode back to
// the identical slice.
func TestDecodeRoundTrip(t *testing.T) {
	events := []obs.Event{
		{T: 0, Kind: obs.EvDiskSpinDown, Dev: "cu140", Dur: 5_000_000},
		{T: 51_234_000, Kind: obs.EvCardClean, Dev: "flashcard", Addr: 17, Size: 98, Dur: 1_742_318},
		{T: 60_000_000, Kind: obs.EvCacheHit, Size: 4096},
		{T: 61_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 123_456_789},
	}
	var buf bytes.Buffer
	sink := obs.NewNDJSONSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	got, _, err := readAllMode(buf.Bytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := []string{
		`{"t_us":1,"kind":"disk.spinup"` + "\n", // truncated object
		`not json at all` + "\n",
		`{"t_us":"twelve","kind":"x"}` + "\n", // wrong type
		`{"t_us":1}` + "\n",                   // missing kind
	}
	for _, in := range cases {
		_, _, err := readAllMode([]byte(in), false)
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("input %q: error %v, want *DecodeError", in, err)
			continue
		}
		if de.Line != 1 {
			t.Errorf("input %q: line %d, want 1", in, de.Line)
		}
	}
}

func TestDecodeErrorReportsLine(t *testing.T) {
	in := `{"t_us":1,"kind":"a"}` + "\n" + `{"t_us":2,"kind":"b"}` + "\n" + `broken` + "\n"
	events, _, err := readAllMode([]byte(in), false)
	var de *DecodeError
	if !errors.As(err, &de) || de.Line != 3 {
		t.Fatalf("err %v, want DecodeError at line 3", err)
	}
	if len(events) != 2 {
		t.Fatalf("%d events decoded before the error, want 2", len(events))
	}
}

func TestDecodeLenient(t *testing.T) {
	in := `{"t_us":1,"kind":"a"}` + "\n" +
		`garbage` + "\n" +
		"\n" + // blank lines are fine, not "skipped"
		`{"t_us":3,"kind":"unknown.kind","addr":9}` + "\n" +
		`{"no_kind":true}` + "\n"
	events, skipped, err := readLenient([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Errorf("skipped %d, want 2", skipped)
	}
	if len(events) != 2 || events[1].Kind != obs.KindOther || events[1].Addr != 9 {
		t.Errorf("events %+v", events)
	}
}

func TestDecodeOversizedLine(t *testing.T) {
	long := []byte(strings.Repeat("x", maxLineBytes+1))
	_, _, err := readAllMode(long, false)
	if err == nil {
		t.Fatal("oversized line accepted")
	}
	// Lenient mode must also abort (framing is unrecoverable), not loop.
	_, _, err = readLenient(long)
	if err == nil {
		t.Fatal("lenient mode accepted an oversized line")
	}
}

// Malformed counts exactly the lenient-skippable lines: decode failures
// with the framing intact, not scanner-level aborts.
func TestDecoderMalformedCounter(t *testing.T) {
	in := `{"t_us":1,"kind":"a"}` + "\n" +
		`garbage` + "\n" +
		`{"no_kind":true}` + "\n" +
		`{"t_us":2,"kind":"b"}` + "\n"
	d := NewDecoder(strings.NewReader(in))
	var events, errs int
	for {
		_, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			errs++
			continue
		}
		events++
	}
	if events != 2 || errs != 2 {
		t.Fatalf("events %d errs %d, want 2 and 2", events, errs)
	}
	if d.Malformed() != 2 {
		t.Errorf("Malformed() = %d, want 2", d.Malformed())
	}

	// A scanner-level failure is terminal, not "malformed".
	d = NewDecoder(strings.NewReader(strings.Repeat("x", maxLineBytes+1)))
	if _, err := d.Next(); err == nil {
		t.Fatal("oversized line accepted")
	}
	if d.Malformed() != 0 {
		t.Errorf("Malformed() after scanner failure = %d, want 0", d.Malformed())
	}
}

func TestDecoderNextEOF(t *testing.T) {
	d := NewDecoder(strings.NewReader(""))
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("err %v, want io.EOF", err)
	}
	// Repeated calls stay at EOF.
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("second call: %v", err)
	}
}
