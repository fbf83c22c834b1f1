package stats

import (
	"fmt"
	"math"
	"math/bits"

	"mobilestorage/internal/units"
)

// DurationLayout is a bucket layout for durations: samples arrive as
// integer microseconds and are recorded as floats in the layout's unit
// (milliseconds or seconds). Beside the float bounds it keeps, for each
// bound, the largest duration that converts to at most that bound. Because
// the conversion and Bucket are both monotone, the number of thresholds
// below a duration is exactly the bucket Bucket gives its converted value,
// so AddDuration buckets with integer compares and no float search.
//
// A layout is built once per process, in a package-level variable beside the
// code that fills its histograms, and read-only after that.
type DurationLayout struct {
	// Bounds are the float bucket bounds, in the layout's unit.
	Bounds []float64
	// perUnit is the unit in µs as a float: a duration d converts to
	// float64(d) / perUnit, which is units.Time.Milliseconds (or Seconds)
	// operation for operation.
	perUnit float64
	// thr[i] is the largest d with float64(d)/perUnit ≤ Bounds[i].
	thr []units.Time
	// first[b] counts the thresholds below the least duration whose
	// bits.Len64 is b, so the bucket of any such duration is at least
	// first[b]. Only negative durations have bit length 64: first[64] is 0.
	first [65]uint8
}

// NewDurationLayout builds the layout over strictly ascending bounds ≥ 0 in
// the given unit (units.Millisecond or units.Second, say). It panics on
// bounds NewHistogram rejects, a negative first bound, more than 255
// bounds, or a unit that is not positive.
func NewDurationLayout(bounds []float64, unit units.Time) *DurationLayout {
	checkBounds(bounds)
	if unit <= 0 || len(bounds) > math.MaxUint8 || len(bounds) > 0 && !(bounds[0] >= 0) {
		panic(fmt.Sprintf("stats: bad duration layout: %d bounds from %v, unit %d µs", len(bounds), bounds, unit))
	}
	l := &DurationLayout{Bounds: bounds, perUnit: float64(unit), thr: make([]units.Time, len(bounds))}
	for i, b := range bounds {
		l.thr[i] = l.threshold(b)
	}
	for n := range 64 {
		least := units.Time(0)
		if n > 0 {
			least = 1 << (n - 1)
		}
		c := 0
		for c < len(l.thr) && l.thr[c] < least {
			c++
		}
		l.first[n] = uint8(c)
	}
	return l
}

// threshold returns the largest d ≥ 0 whose converted value is at most b,
// a bound ≥ 0, by bisection over [0, MaxInt64]: the conversion of 0 is 0,
// so the answer exists.
func (l *DurationLayout) threshold(b float64) units.Time {
	lo, hi := units.Time(0), units.Time(math.MaxInt64)
	if float64(hi)/l.perUnit <= b {
		return hi
	}
	for hi-lo > 1 { // float64(lo)/perUnit ≤ b < float64(hi)/perUnit
		mid := lo + (hi-lo)/2
		if float64(mid)/l.perUnit <= b {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Threshold returns the largest duration whose converted value is at most
// Bounds[i].
func (l *DurationLayout) Threshold(i int) units.Time { return l.thr[i] }

// Bucket returns the bucket d falls in, equal to Bucket(l.Bounds, d in the
// layout's unit) for every d: the bit-length table gives the first
// candidate, and a forward scan passes the thresholds below d. With five
// bounds per decade, at most two thresholds share a bit length, so the scan
// stops within three compares.
func (l *DurationLayout) Bucket(d units.Time) int {
	i := int(l.first[bits.Len64(uint64(d))])
	for i < len(l.thr) && l.thr[i] < d {
		i++
	}
	return i
}

// NewHistogram returns an empty histogram over the layout's bounds.
func (l *DurationLayout) NewHistogram() *Histogram { return NewHistogram(l.Bounds) }

// AddDuration records one duration, converted to l's unit. h must be over
// l's bounds. It records exactly what Add records for the converted value:
// the same bucket, N, Sum, Min and Max.
func (h *Histogram) AddDuration(l *DurationLayout, d units.Time) {
	h.add(float64(d)/l.perUnit, l.Bucket(d))
}
