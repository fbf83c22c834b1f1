package obsreport

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"mobilestorage/internal/obs"
)

// FuzzDecode feeds arbitrary byte streams to both decoder modes. The
// invariants: no panic, strict mode never returns events past the first
// error line, lenient mode accounts for every non-blank line as either an
// event or a skip (so nothing is silently dropped), and neither mode
// allocates more than 64 bytes per input byte plus 64 KiB.
func FuzzDecode(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"t_us":1,"kind":"disk.spinup","dev":"cu140","dur_us":1000}` + "\n"),
		[]byte(`{"t_us":2,"kind":"flashcard.erase","addr":7,"size":3}` + "\n" +
			`{"t_us":3,"kind":"sample.energy","dev":"total","size":123456}` + "\n"),
		[]byte(`{"t_us":1,"kind":"disk.spinup"` + "\n"), // truncated record
		[]byte("not json\n"),
		[]byte(`{"t_us":"x","kind":"y"}` + "\n"), // wrong field type
		[]byte(`{"t_us":1}` + "\n"),              // missing kind
		[]byte(`{"t_us":1,"kind":"some.future.kind","size":-9}` + "\n"),
		[]byte("\n\n\n"),
		[]byte("{}"),
		[]byte("{\"kind\":\"\u0000\"}\n"),
		{0xff, 0xfe, 0x00, '\n'},
		// Hostile: one line just under maxLineBytes, many one-member
		// lines, and nesting deep enough for encoding/json's depth limit
		// (one stream under it, one over).
		[]byte(`{"t_us":1,"kind":"disk.spinup","dev":"` + strings.Repeat("d", maxLineBytes-64) + `"}` + "\n"),
		[]byte(strings.Repeat(`{"kind":"k"}`+"\n", 5000)),
		[]byte(strings.Repeat(`{"t_us":1}`+"\n", 5000)),
		[]byte(`{"kind":"k","x":` + strings.Repeat("[", 9000) + strings.Repeat("]", 9000) + "}\n"),
		[]byte(`{"kind":"k","x":` + strings.Repeat(`{"a":`, 12000) + "1" + strings.Repeat("}", 12000) + "}\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var events, lenientEvents int
		var skipped int64
		var lerr error
		bound := uint64(64*len(data) + 64<<10)
		if alloc := leastAlloc(3, bound, func() { events = countStrict(t, data) }); alloc > bound {
			t.Fatalf("strict decode allocated %d bytes for %d input bytes (bound %d)", alloc, len(data), bound)
		}
		if alloc := leastAlloc(3, bound, func() { lenientEvents, skipped, lerr = countLenient(data) }); alloc > bound {
			t.Fatalf("lenient decode allocated %d bytes for %d input bytes (bound %d)", alloc, len(data), bound)
		}

		if lerr == nil {
			// Mirror bufio.ScanLines framing: split on \n, strip one
			// trailing \r, and only zero-length lines are blank.
			nonBlank := 0
			for _, line := range bytes.Split(data, []byte("\n")) {
				line = bytes.TrimSuffix(line, []byte("\r"))
				if len(line) > 0 {
					nonBlank++
				}
			}
			if lenientEvents+int(skipped) != nonBlank {
				t.Fatalf("lenient mode lost lines: %d events + %d skipped != %d non-blank",
					lenientEvents, skipped, nonBlank)
			}
		}
		// Lenient mode can only succeed where it recovers at least as many
		// events as strict mode decoded before erroring.
		if lerr == nil && lenientEvents < events {
			t.Fatalf("lenient decoded %d events, strict decoded %d", lenientEvents, events)
		}
	})
}

// leastAlloc calls f up to n times and returns the fewest heap bytes one
// call allocated, stopping early at a call within bound.
// runtime.MemStats.TotalAlloc is process-wide, so one reading also counts
// whatever another goroutine allocated meanwhile; the least of several is
// f's own.
func leastAlloc(n int, bound uint64, f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range n {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if least = min(least, after.TotalAlloc-before.TotalAlloc); least <= bound {
			break
		}
	}
	return least
}

// countStrict decodes data until the first error and counts the events,
// failing t on an event without a kind.
func countStrict(t *testing.T, data []byte) int {
	d := NewDecoder(bytes.NewReader(data))
	n := 0
	for {
		e, err := d.Next()
		if err != nil {
			return n
		}
		if e.Kind == 0 {
			t.Fatalf("strict mode returned an event with empty kind: %+v", e)
		}
		n++
	}
}

// countLenient streams data through StreamFiles in lenient mode and counts
// the events delivered.
func countLenient(data []byte) (events int, skipped int64, err error) {
	count := reporterFunc(func(obs.Event) { events++ })
	stats, err := StreamFiles([]string{"-"}, StreamOptions{Lenient: true, Stdin: bytes.NewReader(data)}, count)
	return events, stats.Skipped, err
}

// readAllMode drains a stream through the decoder with the fast scanner on
// or off, collecting events until the first error.
func readAllMode(data []byte, noFast bool) (events []obs.Event, line int, err error) {
	d := NewDecoder(bytes.NewReader(data))
	d.noFast = noFast
	for {
		e, nerr := d.Next()
		if nerr == io.EOF {
			return events, d.line, nil
		}
		if nerr != nil {
			return events, d.line, nerr
		}
		events = append(events, e)
	}
}

// FuzzScanDifferential pins the hand-rolled fast scanner to the
// encoding/json reference path: for ANY byte stream, decoding with the
// fast path enabled must yield the same events, consume the same number of
// lines, and fail (or not) on the same line with the same message. The
// fast scanner is allowed to bail to the fallback, never to disagree.
func FuzzScanDifferential(f *testing.F) {
	seeds := [][]byte{
		// The canonical emitter shape.
		[]byte(`{"t_us":1,"kind":"disk.spinup","dev":"cu140","dur_us":1000}` + "\n"),
		// Escaped strings: force the fallback for captured and skipped values.
		[]byte(`{"t_us":1,"kind":"disk.spinup","dev":"cu\"140"}` + "\n"),
		[]byte(`{"kind":"k","note":"tab\there é 😀"}` + "\n"),
		// Huge numbers: int64 edges, overflow, floats, exponents.
		[]byte(`{"t_us":9223372036854775807,"kind":"k","addr":-9223372036854775808}` + "\n" +
			`{"t_us":9223372036854775808,"kind":"k"}` + "\n" +
			`{"t_us":1e308,"kind":"k","size":0.5}` + "\n" +
			`{"kind":"k","x":123456789012345678901234567890}` + "\n"),
		// Duplicate keys, including case-folded duplicates.
		[]byte(`{"kind":"a","kind":"b","KIND":"c","t_us":1,"t_us":2}` + "\n"),
		// CRLF line endings.
		[]byte("{\"t_us\":1,\"kind\":\"a\"}\r\n{\"t_us\":2,\"kind\":\"b\"}\r\n"),
		// Null fields, unknown nested values, odd whitespace.
		[]byte("{ \"kind\" : \"k\" , \"dev\" : null , \"extra\" : [ {\"a\": [1,2,{}]} , null ] }\n"),
		// Malformed tails and non-objects.
		[]byte(`{"kind":"k"} trailing` + "\n" + `[]` + "\n" + `{"kind":"k"` + "\n"),
		// Invalid UTF-8 inside strings (reference replaces with U+FFFD).
		[]byte("{\"kind\":\"k\",\"dev\":\"\xff\xfe\"}\n"),
		[]byte("{\"kind\":\"\xc3\x28\"}\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fastEvents, fastLine, fastErr := readAllMode(data, false)
		refEvents, refLine, refErr := readAllMode(data, true)

		if len(fastEvents) != len(refEvents) {
			t.Fatalf("fast decoded %d events, reference %d", len(fastEvents), len(refEvents))
		}
		for i := range fastEvents {
			if fastEvents[i] != refEvents[i] {
				t.Fatalf("event %d: fast %+v != reference %+v", i, fastEvents[i], refEvents[i])
			}
		}
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("error disagreement: fast %v, reference %v", fastErr, refErr)
		}
		if fastLine != refLine {
			t.Fatalf("line disagreement: fast consumed %d lines, reference %d", fastLine, refLine)
		}
		if fastErr != nil && fastErr.Error() != refErr.Error() {
			t.Fatalf("error text disagreement:\n fast %v\n  ref %v", fastErr, refErr)
		}
	})
}

// sinkDev keeps the bytes of s that obs.NDJSONSink writes raw into a
// "dev" member: printable ASCII other than '"' and '\', the characters of
// catalog device names.
func sinkDev(s string) string {
	return strings.Map(func(r rune) rune {
		if r < ' ' || r > '~' || r == '"' || r == '\\' {
			return -1
		}
		return r
	}, s)
}

// FuzzSinkFastPath pins the fast scanner to obs.NDJSONSink: the line the
// sink writes for any event with a named kind must take the fast path and
// decode to that event. FuzzScanDifferential cannot catch a drift between
// the two, because a sink line that bails to encoding/json still decodes
// to the same event; only the speed would be lost.
func FuzzSinkFastPath(f *testing.F) {
	f.Add(uint8(obs.EvDiskSpinUp), int64(1), int64(0), int64(0), int64(1000), "cu140")
	f.Add(uint8(obs.EvCardErase), int64(2), int64(7), int64(3), int64(0), "")
	f.Add(uint8(obs.EvEnergySample), int64(0), int64(0), int64(-123456), int64(0), "total")
	f.Add(uint8(obs.KindOther), int64(math.MinInt64), int64(math.MaxInt64), int64(-1), int64(math.MinInt64), " !#~")
	f.Add(uint8(255), int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MaxInt64), "m0:intel")
	f.Fuzz(func(t *testing.T, kind uint8, tUS, addr, size, dur int64, dev string) {
		// Kinds 1 through KindOther map to themselves; other bytes fold
		// into that range.
		n := int(obs.KindOther)
		e := obs.Event{
			T:    tUS,
			Kind: obs.Kind(1 + (int(kind)+n-1)%n),
			Dev:  sinkDev(dev),
			Addr: addr,
			Size: size,
			Dur:  dur,
		}
		var buf bytes.Buffer
		sink := obs.NewNDJSONSink(&buf)
		sink.Emit(e)
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		got, ok := (&Decoder{}).scanEvent(line)
		if !ok {
			t.Fatalf("sink line %s bailed to encoding/json", line)
		}
		if got != e {
			t.Fatalf("sink line %s decoded to %+v, want %+v", line, got, e)
		}
	})
}
