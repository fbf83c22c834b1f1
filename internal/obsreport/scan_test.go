package obsreport

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mobilestorage/internal/obs"
)

// scanOne runs just the fast scanner on one line.
func scanOne(line string) (obs.Event, bool) {
	d := &Decoder{}
	return d.scanEvent([]byte(line))
}

// jsonOne is the reference decode for one line.
func jsonOne(line string) (obs.Event, error) {
	var ej eventJSON
	if err := json.Unmarshal([]byte(line), &ej); err != nil {
		return obs.Event{}, err
	}
	return obs.Event{T: ej.T, Kind: obs.ParseKind(ej.Kind), Dev: ej.Dev, Addr: ej.Addr, Size: ej.Size, Dur: ej.Dur}, nil
}

// Lines in obs.NDJSONSink's layout take the fast path and decode as
// encoding/json decodes them.
func TestScanEventFastPath(t *testing.T) {
	cases := []struct {
		line string
		want obs.Event
	}{
		{`{"t_us":123,"kind":"disk.spinup","dev":"cu140","dur_us":5000}`,
			obs.Event{T: 123, Kind: obs.EvDiskSpinUp, Dev: "cu140", Dur: 5000}},
		{`{"t_us":0,"kind":"cache.hit","size":4096}`,
			obs.Event{Kind: obs.EvCacheHit, Size: 4096}},
		{`{"t_us":7,"kind":"flashcard.erase","dev":"intel","addr":-7,"size":3,"dur_us":2}`,
			obs.Event{T: 7, Kind: obs.EvCardErase, Dev: "intel", Addr: -7, Size: 3, Dur: 2}},
		{`{"t_us":9223372036854775807,"kind":"k"}`, obs.Event{T: math.MaxInt64, Kind: obs.KindOther}},
		{`{"t_us":-9223372036854775808,"kind":"k"}`, obs.Event{T: math.MinInt64, Kind: obs.KindOther}},
	}
	for _, c := range cases {
		got, ok := scanOne(c.line)
		if !ok {
			t.Errorf("%s: fast scanner bailed, want success", c.line)
			continue
		}
		if got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.line, got, c.want)
		}
		ref, err := jsonOne(c.line)
		if err != nil {
			t.Errorf("%s: reference decode failed: %v", c.line, err)
		} else if got != ref {
			t.Errorf("%s: fast %+v != reference %+v", c.line, got, ref)
		}
	}
}

// Valid spellings of an event that the sink never writes fall outside the
// fast grammar, and the decoder still reads them, through encoding/json.
func TestDecodeOtherSpellings(t *testing.T) {
	cases := []struct {
		line string
		want obs.Event
	}{
		{`{"kind":"x","addr":-7,"size":-0}`, obs.Event{Kind: obs.KindOther, Addr: -7}},
		{`{ "t_us" : 1 , "kind" : "k" }`, obs.Event{T: 1, Kind: obs.KindOther}},
		{`{"kind":"k","future_field":{"a":[1,2.5,true,null],"b":"text"}}`,
			obs.Event{Kind: obs.KindOther}},
		{`{"kind":"k","t_us":null}`, obs.Event{Kind: obs.KindOther}},
		// Duplicate keys: last value wins, as with encoding/json.
		{`{"kind":"disk.spinup","kind":"cache.hit"}`, obs.Event{Kind: obs.EvCacheHit}},
		// Case-insensitive key match, as with encoding/json.
		{`{"KIND":"sram.flush","T_US":9,"Dur_Us":2}`, obs.Event{T: 9, Kind: obs.EvSRAMFlush, Dur: 2}},
	}
	for _, c := range cases {
		got, err := NewDecoder(strings.NewReader(c.line)).Next()
		if err != nil {
			t.Errorf("%s: %v", c.line, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.line, got, c.want)
		}
	}
}

// Lines the fast grammar must refuse — some are valid JSON the fallback
// accepts, others are malformed; either way the scanner may not guess.
func TestScanEventBails(t *testing.T) {
	cases := []string{
		`{"kind":"a\u0041"}`,                       // escape in captured string
		`{"dev":"caf\xc3\xa9"}`,                    // non-ASCII in captured string
		`{"t_us":1.5,"kind":"k"}`,                  // float in int field
		`{"t_us":1e3,"kind":"k"}`,                  // exponent in int field
		`{"t_us":01,"kind":"k"}`,                   // leading zero
		`{"t_us":18446744073709551616,"kind":"k"}`, // overflow
		`{"t_us":9223372036854775808,"kind":"k"}`,  // int64 overflow by one
		`{"kind":"k"} trailing`,                    // trailing garbage
		`{"kind":"k"`,                              // truncated
		`{"kind":123}`,                             // wrong type
		`[1,2,3]`,                                  // not an object
		`{"kind":"k","x":nul}`,                     // bad literal
		`{"kind":"k","x":"\q"}`,                    // bad escape in skipped string
		`{"kind":"k","x":"\u12g4"}`,                // bad \u escape in skipped string
		"{\"kind\":\"k\",\"x\":\"a\x01b\"}",        // control byte in skipped string
		`{"a\u0062c":1,"kind":"k"}`,                // escaped key
	}
	for _, c := range cases {
		if ev, ok := scanOne(c); ok {
			// If the scanner accepted it, encoding/json must agree exactly —
			// acceptance is only a bug when the reference disagrees.
			ref, err := jsonOne(c)
			if err != nil || ev != ref {
				t.Errorf("%q: fast scanner accepted (%+v) but reference gave (%+v, %v)", c, ev, ref, err)
			}
		}
	}
}

func TestScanInt(t *testing.T) {
	cases := []struct {
		in   string
		v    int64
		ok   bool
		rest string
	}{
		{"0", 0, true, ""},
		{"-0", 0, true, ""},
		{"42,", 42, true, ","},
		{"9223372036854775807}", math.MaxInt64, true, "}"},
		{"-9223372036854775808}", math.MinInt64, true, "}"},
		{"9223372036854775808", 0, false, ""},
		{"-9223372036854775809", 0, false, ""},
		// Past int64 in 19 digits, and 20 digits whose unchecked sum wraps
		// (2^64 wraps to 0): the digit bound and range check refuse them.
		{"9999999999999999999", 0, false, ""},
		{"18446744073709551616", 0, false, ""},
		{"99999999999999999999", 0, false, ""},
		{"-18446744073709551616", 0, false, ""},
		{"1.5", 0, false, ""},
		{"2e8", 0, false, ""},
		{"007", 0, false, ""},
		{"-", 0, false, ""},
		{"+1", 0, false, ""},
		{"", 0, false, ""},
	}
	for _, c := range cases {
		v, end, ok := scanInt([]byte(c.in), 0)
		if ok != c.ok {
			t.Errorf("scanInt(%q): ok=%v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if v != c.v || c.in[end:] != c.rest {
			t.Errorf("scanInt(%q) = %d rest %q, want %d rest %q", c.in, v, c.in[end:], c.v, c.rest)
		}
	}
}

// The interning table returns identical string headers for repeated names
// and stays bounded under unbounded cardinality.
func TestIntern(t *testing.T) {
	d := &Decoder{}
	a := d.intern([]byte("cu140"))
	b := d.intern([]byte("cu140"))
	if a != b || a != "cu140" {
		t.Fatalf("intern: %q, %q", a, b)
	}
	if d.intern(nil) != "" {
		t.Error("intern(empty) != \"\"")
	}
	// A name that is a prefix of the one before it, and a name again after
	// another: each comes back as itself, whatever intern remembers.
	for _, name := range []string{"cu140", "cu14", "cu140", "sram", "cu140"} {
		if got := d.intern([]byte(name)); got != name {
			t.Errorf("intern(%q) = %q", name, got)
		}
	}
	for i := 0; i < 2*maxInternStrings; i++ {
		d.intern([]byte(strings.Repeat("x", 1+i%40) + string(rune('a'+i%26))))
	}
	if len(d.strs) > maxInternStrings {
		t.Errorf("intern table grew to %d entries, cap is %d", len(d.strs), maxInternStrings)
	}
}

// The decoder produces identical results with the fast path on and off for
// a canonical emitter stream — the cheap always-on cousin of the
// differential fuzz target.
func TestDecoderFastMatchesJSON(t *testing.T) {
	data := benchStream(500)
	fast, _, err := readAllMode(data, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := readAllMode(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(ref) {
		t.Fatalf("fast %d events, reference %d", len(fast), len(ref))
	}
	for i := range fast {
		if fast[i] != ref[i] {
			t.Fatalf("event %d: fast %+v != reference %+v", i, fast[i], ref[i])
		}
	}
}
