// Package statstest checks a stats.DurationLayout against the float rule it
// replaces: a duration d converted by the caller's own expression (conv)
// and bucketed by stats.Bucket. Tests of each package that owns a duration
// layout call it with that package's conversion.
package statstest

import (
	"math"
	"reflect"
	"testing"

	"mobilestorage/internal/stats"
	"mobilestorage/internal/units"
)

// ExhaustiveTop is the end of the range CheckLayout compares microsecond by
// microsecond: 20 s.
const ExhaustiveTop = 20 * units.Second

// CheckLayout fails tb unless l buckets every int64 duration as the float
// rule does. At each threshold t = l.Threshold(i) it requires
// stats.Bucket(l.Bounds, conv(t)) ≤ i < stats.Bucket(l.Bounds, conv(t+1)),
// with the thresholds non-decreasing: since conv and stats.Bucket are
// monotone, that makes the count of thresholds below d equal the float
// bucket of conv(d) for every d. It then compares l.Bucket with the float
// rule directly on every microsecond from 0 to ExhaustiveTop, three either
// side of each threshold, negative durations and durations near MaxInt64.
func CheckLayout(tb testing.TB, l *stats.DurationLayout, conv func(units.Time) float64) {
	tb.Helper()
	var edges []units.Time
	for i := range l.Bounds {
		t := l.Threshold(i)
		if i > 0 && t < l.Threshold(i-1) {
			tb.Fatalf("threshold %d (%d µs) is below threshold %d (%d µs)", i, t, i-1, l.Threshold(i-1))
		}
		if got := stats.Bucket(l.Bounds, conv(t)); got > i {
			tb.Fatalf("threshold %d: %d µs converts to %v, in float bucket %d > %d", i, t, conv(t), got, i)
		}
		if t < math.MaxInt64 {
			if got := stats.Bucket(l.Bounds, conv(t+1)); got <= i {
				tb.Fatalf("threshold %d: %d µs + 1 converts to %v, still in float bucket %d ≤ %d", i, t, conv(t+1), got, i)
			}
		}
		for k := units.Time(-3); k <= 3; k++ {
			if d := t + k; (d < t) == (k < 0) { // skip a sum that wrapped
				edges = append(edges, d)
			}
		}
	}
	for d := units.Time(0); d <= ExhaustiveTop; d++ {
		if got, want := l.Bucket(d), stats.Bucket(l.Bounds, conv(d)); got != want {
			tb.Fatalf("%d µs: integer bucket %d, float bucket %d", d, got, want)
		}
	}
	edges = append(edges, -1, -2, -units.Second, math.MinInt64, math.MinInt64+1,
		math.MaxInt64, math.MaxInt64-1, math.MaxInt64-1023, math.MaxInt64-1024, math.MaxInt64/2, 1<<53, 1<<53+1)
	CheckSamples(tb, l, conv, edges)
}

// CheckSamples fails tb unless each duration buckets as the float rule
// does, and a histogram fed the durations through AddDuration equals, field
// for field, one fed their conversions through Add.
func CheckSamples(tb testing.TB, l *stats.DurationLayout, conv func(units.Time) float64, ds []units.Time) {
	tb.Helper()
	byDuration, byFloat := l.NewHistogram(), l.NewHistogram()
	for _, d := range ds {
		if got, want := l.Bucket(d), stats.Bucket(l.Bounds, conv(d)); got != want {
			tb.Fatalf("%d µs: integer bucket %d, float bucket %d", d, got, want)
		}
		byDuration.AddDuration(l, d)
		byFloat.Add(conv(d))
	}
	if !reflect.DeepEqual(byDuration, byFloat) {
		tb.Fatalf("AddDuration histogram %+v\n!= Add histogram %+v", byDuration, byFloat)
	}
}
