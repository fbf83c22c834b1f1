package obsreport

import (
	"math"
	"testing"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/units"
)

// relErr returns |got-want|/want.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

// Golden quantiles for a uniform distribution over [1, 1000]: with
// interpolation the estimates must land well inside one bucket ratio
// (10^0.2 ≈ 1.58×) of the exact answers — we require 10%.
func TestQuantileUniform(t *testing.T) {
	h := latencyLayout.NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	golden := []struct {
		q, want float64
	}{
		{0.50, 500},
		{0.90, 900},
		{0.99, 990},
	}
	for _, g := range golden {
		got := h.Quantile(g.q)
		if relErr(got, g.want) > 0.10 {
			t.Errorf("uniform p%.0f = %.1f, want %.1f ± 10%%", g.q*100, got, g.want)
		}
	}
	if h.Max != 1000 || h.Min != 1 {
		t.Errorf("extremes [%g, %g], want [1, 1000]", h.Min, h.Max)
	}
	if got := h.Mean(); got != 500.5 {
		t.Errorf("mean %g, want 500.5 exactly", got)
	}
}

// A two-sided point-mass distribution has exactly computable quantiles:
// 90 samples at 1.0 and 10 at 100.0 put p50 at 1 and p99 at 100.
func TestQuantilePointMasses(t *testing.T) {
	h := latencyLayout.NewHistogram()
	for i := 0; i < 90; i++ {
		h.Add(1.0)
	}
	for i := 0; i < 10; i++ {
		h.Add(100.0)
	}
	if got := h.Quantile(0.50); relErr(got, 1.0) > 0.30 {
		t.Errorf("p50 = %g, want ≈ 1", got)
	}
	if got := h.Quantile(0.99); relErr(got, 100.0) > 0.30 {
		t.Errorf("p99 = %g, want ≈ 100", got)
	}
	// Quantiles never escape the observed range.
	if got := h.Quantile(1.0); got != 100.0 {
		t.Errorf("p100 = %g, want exactly max 100", got)
	}
	if got := h.Quantile(0.0); got != 1.0 {
		t.Errorf("p0 = %g, want exactly min 1", got)
	}
}

// Exponentially distributed latencies (the shape of real service-time
// tails), deterministic via inverse CDF sampling on a fixed grid.
func TestQuantileExponential(t *testing.T) {
	const mean = 5.0 // ms
	h := latencyLayout.NewHistogram()
	n := 10000
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / float64(n)
		h.Add(-mean * math.Log(1-u))
	}
	for _, g := range []struct{ q, want float64 }{
		{0.50, -mean * math.Log(0.50)},
		{0.90, -mean * math.Log(0.10)},
		{0.99, -mean * math.Log(0.01)},
	} {
		got := h.Quantile(g.q)
		if relErr(got, g.want) > 0.10 {
			t.Errorf("exp p%.0f = %.3f, want %.3f ± 10%%", g.q*100, got, g.want)
		}
	}
	if relErr(h.Mean(), mean) > 0.01 {
		t.Errorf("mean %.4f, want ≈ %g", h.Mean(), mean)
	}
}

func TestQuantileEmptyAndOverflow(t *testing.T) {
	h := stats.NewHistogram([]float64{1, 10})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile %g, want 0", got)
	}
	h.Add(1e9) // overflow
	if got := h.Quantile(0.99); got != 1e9 {
		t.Errorf("overflow quantile %g, want the exact max 1e9", got)
	}
}

// The estimator must agree with the simulator's conservative bucket-edge
// quantiles: estimate ≤ edge bound, always.
func TestQuantileTighterThanStatsBound(t *testing.T) {
	h := stats.NewLatencyHistogram()
	for i := 1; i <= 500; i++ {
		h.Add(float64(i) * 0.37)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		bound := h.QuantileBound(q)
		est := h.Quantile(q)
		if est > bound {
			t.Errorf("q=%.2f: estimate %g exceeds the edge bound %g", q, est, bound)
		}
	}
}

// A registry snapshot is a stats.Histogram with exact extremes, so the
// estimator clamps to them and reports them exactly.
func TestRegistrySnapshotQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	oh := reg.Histogram("x")
	for i := 1; i <= 100; i++ {
		oh.Observe(units.Time(i) * units.Millisecond)
	}
	h := reg.Histograms()["x"]
	if h.N != 100 {
		t.Fatalf("snapshot N = %d", h.N)
	}
	if h.Min != 1 || h.Max != 100 {
		t.Errorf("snapshot extremes [%g, %g], want [1, 100]", h.Min, h.Max)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("snapshot p100 = %g, want exactly 100", got)
	}
	if got := h.Quantile(0.5); relErr(got, 50) > 0.6 {
		t.Errorf("snapshot p50 = %g, want ≈ 50", got)
	}
	if h.Sum != 5050 {
		t.Errorf("sum %g, want 5050", h.Sum)
	}
}
