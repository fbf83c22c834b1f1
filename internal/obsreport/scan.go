package obsreport

// The zero-allocation NDJSON fast path. scanEvent parses exactly the line
// obs.NDJSONSink writes, member for member in the sink's order:
//
//	{"t_us":T,"kind":"K"[,"dev":"D"][,"addr":A][,"size":S][,"dur_us":U]}
//
// with no whitespace, plain integers, and strings of printable ASCII
// without escapes. There are no per-event map or interface values, kinds
// are mapped by obs.ParseKind and Dev strings interned, so a steady-state
// stream allocates nothing per event.
//
// Any other line — reordered, spaced, escaped, non-ASCII, a float, an
// unknown or repeated member — makes the scanner bail with ok=false, and
// the caller re-parses it with encoding/json (the lenient fallback path).
// The fast path therefore never has to reproduce encoding/json's error
// behavior, only its successes: FuzzScanDifferential pins that agreement
// byte for byte, and FuzzSinkFastPath pins every line the sink writes to
// the fast path.

import (
	"math"

	"mobilestorage/internal/obs"
)

// maxInternStrings caps the Dev interning table so a hostile stream
// with unbounded name cardinality cannot grow memory; past the cap new
// names are still returned, just not retained.
const maxInternStrings = 1024

// intern returns a string for b, reusing a previously built string with the
// same bytes. Device names are a tiny fixed vocabulary, so after warm-up no
// decode allocates for them.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.strs[string(b)]; ok { // map lookup on []byte key: no alloc
		return s
	}
	s := string(b)
	if d.strs == nil {
		d.strs = make(map[string]string, 16)
	}
	if len(d.strs) < maxInternStrings {
		d.strs[s] = s
	}
	return s
}

// scanEvent parses one NDJSON line of the sink's layout into an event.
// ok=false means "not the sink's layout": the line may still be valid JSON
// for the fallback decoder.
func (d *Decoder) scanEvent(b []byte) (obs.Event, bool) {
	var ev obs.Event
	i, ok := scanLit(b, 0, `{"t_us":`)
	if !ok {
		return obs.Event{}, false
	}
	if ev.T, i, ok = scanInt(b, i); !ok {
		return obs.Event{}, false
	}
	if i, ok = scanLit(b, i, `,"kind":`); !ok {
		return obs.Event{}, false
	}
	kind, i, ok := scanSimpleString(b, i)
	if !ok {
		return obs.Event{}, false
	}
	ev.Kind = obs.ParseKind(string(kind)) // the conversion does not escape
	if j, ok := scanLit(b, i, `,"dev":`); ok {
		var dev []byte
		if dev, i, ok = scanSimpleString(b, j); !ok {
			return obs.Event{}, false
		}
		ev.Dev = d.intern(dev)
	}
	// The integer members are optional: a line without one leaves its
	// field zero, but a member whose value is not an int64 literal bails.
	if j, ok := scanLit(b, i, `,"addr":`); ok {
		if ev.Addr, i, ok = scanInt(b, j); !ok {
			return obs.Event{}, false
		}
	}
	if j, ok := scanLit(b, i, `,"size":`); ok {
		if ev.Size, i, ok = scanInt(b, j); !ok {
			return obs.Event{}, false
		}
	}
	if j, ok := scanLit(b, i, `,"dur_us":`); ok {
		if ev.Dur, i, ok = scanInt(b, j); !ok {
			return obs.Event{}, false
		}
	}
	if i != len(b)-1 || b[i] != '}' {
		return obs.Event{}, false
	}
	return ev, true
}

// scanLit matches lit at b[i:], returning the index just past it.
func scanLit(b []byte, i int, lit string) (end int, ok bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// scanSimpleString scans a quoted string containing only printable ASCII
// and no escapes, returning its content. Anything richer (escapes,
// non-ASCII, control bytes) is out of the fast grammar: encoding/json's
// unquoting — escape decoding and invalid-UTF-8 replacement — is exactly
// what we refuse to reimplement.
func scanSimpleString(b []byte, i int) (s []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	j := i + 1
	for j < len(b) {
		c := b[j]
		if c == '"' {
			return b[i+1 : j], j + 1, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, i, false
		}
		j++
	}
	return nil, i, false
}

// maxIntDigits is the most digits an int64 literal has; 19 nines still fit
// a uint64, so scanInt sums up to that many digits without checking.
const maxIntDigits = 19

// scanInt parses a JSON integer literal the way encoding/json decodes into
// an int64: strict number grammar, no fraction or exponent, no leading
// zeros, and range-checked. ok=false for anything else (the fallback path
// then reports encoding/json's own error).
func scanInt(b []byte, i int) (v int64, end int, ok bool) {
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, i, false
	}
	var n uint64
	start := i
	if b[i] == '0' {
		i++
	} else {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			n = n*10 + uint64(b[i]-'0')
			i++
		}
		if i-start > maxIntDigits {
			return 0, i, false // the sum may have wrapped; certainly not an int64
		}
	}
	if i < len(b) {
		switch b[i] {
		case '.', 'e', 'E':
			return 0, i, false // valid JSON number, but not an int64
		case '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			return 0, i, false // leading zero: invalid JSON number
		}
	}
	if neg {
		if n > 1<<63 {
			return 0, i, false
		}
		return -int64(n), i, true
	}
	if n > math.MaxInt64 {
		return 0, i, false
	}
	return int64(n), i, true
}
