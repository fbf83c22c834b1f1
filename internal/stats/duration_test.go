package stats_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"mobilestorage/internal/stats"
	"mobilestorage/internal/stats/statstest"
	"mobilestorage/internal/units"
)

// TestLatencyLayoutThresholds checks core.Run's result layout against the
// conversion core.Run used before it bucketed by thresholds.
func TestLatencyLayoutThresholds(t *testing.T) {
	statstest.CheckLayout(t, stats.LatencyLayout, units.Time.Milliseconds)
	// The first two bounds, 1 µs and 1.58 µs, share the threshold 1 µs,
	// so bucket 1 stays empty for durations.
	if a, b := stats.LatencyLayout.Threshold(0), stats.LatencyLayout.Threshold(1); a != 1 || b != 1 {
		t.Errorf("thresholds 0 and 1 are %d and %d µs, want 1 and 1", a, b)
	}
}

// TestDurationLayoutEdges checks layouts the repo does not build but
// NewDurationLayout accepts: a zero first bound, several thresholds per bit
// length, bounds past the largest duration's conversion, and +Inf.
func TestDurationLayoutEdges(t *testing.T) {
	for _, c := range []struct {
		name   string
		bounds []float64
		unit   units.Time
	}{
		{"zero first bound", []float64{0, 1e-3, 1}, units.Millisecond},
		{"dense", []float64{1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 7e-3, 8e-3, 9e-3, 1e-2, 1.5e-2, 1.6e-2, 1.7e-2}, units.Millisecond},
		{"past MaxInt64", []float64{1, 9.2e15, 9.223372036854775e15, 9.3e15, 1e300, math.Inf(1)}, units.Millisecond},
		{"seconds", stats.LogBounds(1e-2, 1e5), units.Second},
		{"microseconds", stats.LogBounds(1, 1e12), units.Microsecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := stats.NewDurationLayout(c.bounds, c.unit)
			statstest.CheckLayout(t, l, func(d units.Time) float64 { return float64(d) / float64(c.unit) })
		})
	}
}

func TestDurationLayoutRejects(t *testing.T) {
	for _, c := range []struct {
		name   string
		bounds []float64
		unit   units.Time
	}{
		{"negative first bound", []float64{-1, 1}, units.Millisecond},
		{"NaN first bound", []float64{math.NaN(), 1}, units.Millisecond},
		{"descending", []float64{2, 1}, units.Millisecond},
		{"zero unit", []float64{1}, 0},
		{"256 bounds", stats.LogBounds(1, 1e51), units.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDurationLayout(%d bounds, %d) did not panic", len(c.bounds), c.unit)
				}
			}()
			stats.NewDurationLayout(c.bounds, c.unit)
		})
	}
}

// TestDurationHistogramJSON requires a histogram filled through AddDuration
// to survive a JSON round trip equal and to merge with its decoded copy:
// the threshold table is the layout's, not the histogram's.
func TestDurationHistogramJSON(t *testing.T) {
	h := stats.NewLatencyHistogram()
	for _, d := range []units.Time{0, 1, 2, 999, 1000, 1001, 123456, 631 * units.Second} {
		h.AddDuration(stats.LatencyLayout, d)
	}
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back stats.Histogram
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, h) {
		t.Fatalf("decoded %+v\n!= %+v", back, *h)
	}
	back.Merge(h)
	back.AddDuration(stats.LatencyLayout, 5)
	if back.N != 2*h.N+1 || back.Counts[stats.LatencyLayout.Bucket(5)] != 2*h.Counts[stats.LatencyLayout.Bucket(5)]+1 {
		t.Errorf("merged decoded copy: N %d, want %d", back.N, 2*h.N+1)
	}
}
