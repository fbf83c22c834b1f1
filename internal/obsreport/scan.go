package obsreport

// The zero-allocation NDJSON fast path. scanEvent parses one line of the
// canonical emitter shape (obs.NDJSONSink output and near relatives) with a
// hand-rolled scanner: no encoding/json, no per-event map or interface
// values, kinds mapped by obs.ParseKind and Dev strings interned, so a
// steady-state stream allocates nothing per event.
//
// The scanner is deliberately conservative: any construct outside its
// grammar — escape sequences, non-ASCII strings, floats or exponents in
// integer fields, oversized numbers, unusual whitespace — makes it bail
// with ok=false, and the caller re-parses the line with encoding/json (the
// lenient fallback path). The fast path therefore never has to reproduce
// encoding/json's error behavior, only its successes; the differential
// fuzz target FuzzScanDifferential pins that agreement byte for byte.

import (
	"math"

	"mobilestorage/internal/obs"
)

// maxSkipDepth bounds nesting while skipping unknown-field values. Deeper
// documents fall back to encoding/json (which allows ~10000 levels), so the
// cap costs correctness nothing and keeps the scanner's recursion shallow.
const maxSkipDepth = 64

// maxInternStrings caps the Dev interning table so a hostile stream
// with unbounded name cardinality cannot grow memory; past the cap new
// names are still returned, just not retained.
const maxInternStrings = 1024

// Field indices for the known event shape.
const (
	fUnknown = iota
	fT
	fKind
	fDev
	fAddr
	fSize
	fDur
)

// fieldOf resolves a member key to a known event field. Exact matches are
// the emitter's spelling; the ASCII-lowercase retry mirrors encoding/json's
// case-insensitive key matching (non-ASCII keys never reach here — the key
// grammar already forced a fallback).
func fieldOf(key []byte) int {
	if f := fieldExact(key); f != fUnknown {
		return f
	}
	if len(key) > 6 {
		return fUnknown
	}
	var low [6]byte
	for i, c := range key {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		low[i] = c
	}
	return fieldExact(low[:len(key)])
}

func fieldExact(key []byte) int {
	switch string(key) { // compiler-optimized, no allocation
	case "t_us":
		return fT
	case "kind":
		return fKind
	case "dev":
		return fDev
	case "addr":
		return fAddr
	case "size":
		return fSize
	case "dur_us":
		return fDur
	}
	return fUnknown
}

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

// scanEvent parses one NDJSON line into ev. ok=false means "not fast-path
// parseable" — the line may still be valid JSON for the fallback decoder.
func (d *Decoder) scanEvent(b []byte) (ev obs.Event, ok bool) {
	i := skipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return ev, false
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		return ev, skipWS(b, i+1) == len(b)
	}
	for {
		key, j, ok := scanSimpleString(b, i)
		if !ok {
			return obs.Event{}, false
		}
		i = skipWS(b, j)
		if i >= len(b) || b[i] != ':' {
			return obs.Event{}, false
		}
		i = skipWS(b, i+1)
		if i, ok = d.scanMember(b, i, key, &ev); !ok {
			return obs.Event{}, false
		}
		i = skipWS(b, i)
		if i >= len(b) {
			return obs.Event{}, false
		}
		if b[i] == '}' {
			if skipWS(b, i+1) != len(b) {
				return obs.Event{}, false
			}
			return ev, true
		}
		if b[i] != ',' {
			return obs.Event{}, false
		}
		i = skipWS(b, i+1)
	}
}

// scanMember consumes one member's value, storing it into the matching
// event field or validating and skipping it for unknown keys. A JSON null
// leaves the field untouched, exactly as encoding/json does.
func (d *Decoder) scanMember(b []byte, i int, key []byte, ev *obs.Event) (int, bool) {
	switch fieldOf(key) {
	case fT:
		return scanIntField(b, i, &ev.T)
	case fAddr:
		return scanIntField(b, i, &ev.Addr)
	case fSize:
		return scanIntField(b, i, &ev.Size)
	case fDur:
		return scanIntField(b, i, &ev.Dur)
	case fKind:
		return scanKindField(b, i, &ev.Kind)
	case fDev:
		return d.scanStringField(b, i, &ev.Dev)
	default:
		return skipValue(b, i, 0)
	}
}

func scanIntField(b []byte, i int, dst *int64) (int, bool) {
	if isNull(b, i) {
		return i + 4, true
	}
	v, end, ok := scanInt(b, i)
	if !ok {
		return i, false
	}
	*dst = v
	return end, true
}

// scanKindField maps a kind name through obs.ParseKind; the name's string
// conversion does not escape, so it allocates nothing.
func scanKindField(b []byte, i int, dst *obs.Kind) (int, bool) {
	if isNull(b, i) {
		return i + 4, true
	}
	s, end, ok := scanSimpleString(b, i)
	if !ok {
		return i, false
	}
	*dst = obs.ParseKind(string(s))
	return end, true
}

func (d *Decoder) scanStringField(b []byte, i int, dst *string) (int, bool) {
	if isNull(b, i) {
		return i + 4, true
	}
	s, end, ok := scanSimpleString(b, i)
	if !ok {
		return i, false
	}
	*dst = d.intern(s)
	return end, true
}

// skipWS advances past JSON whitespace (the framing already consumed any
// newline, but interior \r and \n are still legal whitespace).
func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

func isNull(b []byte, i int) bool {
	return i+4 <= len(b) && string(b[i:i+4]) == "null"
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
			d := uint64(b[i] - '0')
			if n > (math.MaxUint64-d)/10 {
				return 0, i, false // overflows uint64, certainly int64
			}
			n = n*10 + d
			i++
		}
	}
	if i == start {
		return 0, i, false
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

// skipValue validates and skips one JSON value of any type — the unknown-
// field case. It must never accept input encoding/json would reject
// (that would make the fast path succeed where the fallback errors), so it
// applies the full JSON grammar; content it does not need to interpret
// (escaped or non-ASCII string bytes, float numbers) is allowed through.
func skipValue(b []byte, i, depth int) (end int, ok bool) {
	if depth > maxSkipDepth {
		return i, false
	}
	i = skipWS(b, i)
	if i >= len(b) {
		return i, false
	}
	switch c := b[i]; {
	case c == '"':
		return skipString(b, i)
	case c == '{':
		i = skipWS(b, i+1)
		if i < len(b) && b[i] == '}' {
			return i + 1, true
		}
		for {
			if i, ok = skipString(b, skipWS(b, i)); !ok {
				return i, false
			}
			i = skipWS(b, i)
			if i >= len(b) || b[i] != ':' {
				return i, false
			}
			if i, ok = skipValue(b, i+1, depth+1); !ok {
				return i, false
			}
			i = skipWS(b, i)
			if i >= len(b) {
				return i, false
			}
			if b[i] == '}' {
				return i + 1, true
			}
			if b[i] != ',' {
				return i, false
			}
			i++
		}
	case c == '[':
		i = skipWS(b, i+1)
		if i < len(b) && b[i] == ']' {
			return i + 1, true
		}
		for {
			if i, ok = skipValue(b, i, depth+1); !ok {
				return i, false
			}
			i = skipWS(b, i)
			if i >= len(b) {
				return i, false
			}
			if b[i] == ']' {
				return i + 1, true
			}
			if b[i] != ',' {
				return i, false
			}
			i++
		}
	case c == 't':
		return expectLit(b, i, "true")
	case c == 'f':
		return expectLit(b, i, "false")
	case c == 'n':
		return expectLit(b, i, "null")
	case c == '-' || (c >= '0' && c <= '9'):
		return skipNumber(b, i)
	default:
		return i, false
	}
}

func expectLit(b []byte, i int, lit string) (int, bool) {
	if i+len(lit) > len(b) || string(b[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// skipString validates a quoted string for skipping: escape sequences must
// be well-formed (that is all encoding/json checks — even lone surrogates
// are accepted and replaced) and control bytes are forbidden, but non-ASCII
// bytes pass through since the content is discarded.
func skipString(b []byte, i int) (end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return i, false
	}
	j := i + 1
	for j < len(b) {
		switch c := b[j]; {
		case c == '"':
			return j + 1, true
		case c == '\\':
			j++
			if j >= len(b) {
				return i, false
			}
			switch b[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				j++
			case 'u':
				if j+4 >= len(b) {
					return i, false
				}
				for k := 1; k <= 4; k++ {
					if !isHex(b[j+k]) {
						return i, false
					}
				}
				j += 5
			default:
				return i, false
			}
		case c < 0x20:
			return i, false
		default:
			j++
		}
	}
	return i, false
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// skipNumber validates a full JSON number (integer, fraction, exponent).
func skipNumber(b []byte, i int) (end int, ok bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return i, false
	case b[i] == '0':
		i++
	case b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == j {
			return i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == j {
			return i, false
		}
	}
	return i, true
}
