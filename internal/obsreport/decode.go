// Package obsreport is the analysis half of the observability stack: it
// consumes the structured event stream emitted by internal/obs (from an
// NDJSON file written with storagesim -events, or in-process with a
// FigureSet as the run's tracer) and computes the derived reports behind
// the paper's time-dependent claims — per-device spin state timelines and
// idle-time histograms (Table 5), energy-over-time series (Figures 2–4),
// latency quantiles, per-segment wear distributions (§5.2), and cleaning
// overhead (§5.3/eNVy).
//
// Everything here is deterministic: reports are pure functions of the
// event stream, maps are rendered in sorted order, and quantiles come from
// a reproducible bucket-interpolation estimator.
package obsreport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mobilestorage/internal/obs"
)

// maxLineBytes bounds one NDJSON line; a simulator event serializes to well
// under 200 bytes, so anything beyond this is a corrupt stream, reported as
// an error rather than an unbounded allocation.
const maxLineBytes = 1 << 20

// DecodeError reports a malformed NDJSON line with its 1-based position.
type DecodeError struct {
	Line int
	Err  error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("obsreport: line %d: %v", e.Line, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// eventJSON mirrors the NDJSON field names of obs.NDJSONSink.
type eventJSON struct {
	T    int64  `json:"t_us"`
	Kind string `json:"kind"`
	Dev  string `json:"dev"`
	Addr int64  `json:"addr"`
	Size int64  `json:"size"`
	Dur  int64  `json:"dur_us"`
}

// Decoder reads an NDJSON event stream line by line. Each line is first
// parsed by the fast scanner (scan.go), which takes exactly the line
// obs.NDJSONSink writes, in the sink's member order, with zero allocations
// per event; every other line — another member order, whitespace, escape
// sequences, non-ASCII strings, floats, unknown members — falls back to
// encoding/json, which is also where every malformed-line error comes
// from. FuzzScanDifferential pins the two paths to byte-for-byte agreement,
// and FuzzSinkFastPath pins every sink line to the fast path.
type Decoder struct {
	sc   *bufio.Scanner
	line int
	// noFast disables the hand-rolled scanner so every line goes through
	// encoding/json — the reference path the differential fuzz target and
	// benchmarks compare against.
	noFast bool
	// strs interns Dev strings across lines (see Decoder.intern).
	strs map[string]string
	// malformed counts lines that produced a *DecodeError while the framing
	// stayed intact — the lines a lenient caller skips.
	malformed int
}

// NewDecoder returns a decoder over r.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLineBytes)
	return &Decoder{sc: sc}
}

// Next returns the next event. It returns io.EOF at end of stream and a
// *DecodeError for malformed lines (the decoder stays usable: callers may
// skip the bad line and continue). Blank lines are ignored. Unknown event
// kinds are not an error — forward compatibility with future emitters —
// and decode as obs.KindOther.
func (d *Decoder) Next() (obs.Event, error) {
	for d.sc.Scan() {
		d.line++
		raw := d.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		ev, ok := obs.Event{}, false
		if !d.noFast {
			ev, ok = d.scanEvent(raw)
		}
		if !ok {
			var ej eventJSON
			if err := json.Unmarshal(raw, &ej); err != nil {
				d.malformed++
				return obs.Event{}, &DecodeError{Line: d.line, Err: err}
			}
			ev = obs.Event{T: ej.T, Kind: obs.ParseKind(ej.Kind), Dev: ej.Dev, Addr: ej.Addr, Size: ej.Size, Dur: ej.Dur}
		}
		if ev.Kind == 0 {
			d.malformed++
			return obs.Event{}, &DecodeError{Line: d.line, Err: fmt.Errorf("missing event kind")}
		}
		return ev, nil
	}
	if err := d.sc.Err(); err != nil {
		d.line++
		return obs.Event{}, &DecodeError{Line: d.line, Err: err}
	}
	return obs.Event{}, io.EOF
}

// Malformed returns how many lines so far failed to decode with the framing
// intact — exactly the lines a lenient caller skips. Scanner-level failures
// (oversized line, read error) are not counted: past them nothing more can
// be decoded, so they always surface as a terminal error instead.
func (d *Decoder) Malformed() int { return d.malformed }
