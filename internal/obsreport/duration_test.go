package obsreport

import (
	"encoding/binary"
	"math"
	"testing"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/stats/statstest"
	"mobilestorage/internal/units"
)

// durationLayouts are every duration layout the repo builds, each with the
// float expression its caller converted a duration by before bucketing by
// thresholds.
var durationLayouts = []struct {
	name   string
	layout *stats.DurationLayout
	conv   func(units.Time) float64
}{
	{"core result (ms)", stats.LatencyLayout, units.Time.Milliseconds},
	{"obsreport latency (ms)", latencyLayout, func(d units.Time) float64 { return float64(d) / 1e3 }},
	{"obsreport backoff (ms)", backoffLayout, func(d units.Time) float64 { return float64(d) / 1e3 }},
	{"obsreport sleep (s)", sleepLayout, func(d units.Time) float64 { return float64(d) / 1e6 }},
	{"obs registry (ms)", obs.HistogramLayout, units.Time.Milliseconds},
}

// TestDurationLayouts checks obsreport's three duration layouts against the
// float rule; stats checks the core result layout and obs the registry's.
func TestDurationLayouts(t *testing.T) {
	for _, c := range durationLayouts[1:4] {
		t.Run(c.name, func(t *testing.T) { statstest.CheckLayout(t, c.layout, c.conv) })
	}
}

// FuzzDurationLayouts feeds any int64 durations to any duration layout: the
// integer bucket must equal the float rule, and a histogram fed the
// durations through AddDuration must equal one fed their conversions
// through Add.
func FuzzDurationLayouts(f *testing.F) {
	seed := func(layout byte, ds ...int64) {
		data := []byte{layout}
		for _, d := range ds {
			data = binary.BigEndian.AppendUint64(data, uint64(d))
		}
		f.Add(data)
	}
	seed(0, 0, 1, 2, 1000, 1001, 630957344, 630957345)
	seed(1, 1, 1584, 1585, 1000000008, 1000000009, math.MaxInt64)
	seed(2, -1, 999999, 1000000, 1000001, math.MinInt64)
	seed(3, 9999, 10000, 10001, 100000000000, 100000000001, 1<<53+1)
	seed(4, 0, 999, 1000, 10000000000, 10000000001, 1<<62)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := durationLayouts[int(data[0])%len(durationLayouts)]
		var ds []units.Time
		for rest := data[1:]; len(rest) >= 8 && len(ds) < 64; rest = rest[8:] {
			ds = append(ds, units.Time(binary.BigEndian.Uint64(rest)))
		}
		statstest.CheckSamples(t, c.layout, c.conv, ds)
	})
}
