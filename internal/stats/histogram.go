package stats

import (
	"fmt"
	"math"
	"slices"

	"mobilestorage/internal/units"
)

// bucketsPerDecade fixes the resolution of every bucket layout: five
// log-spaced bounds per decade, a bucket ratio of 10^0.2 ≈ 1.58.
const bucketsPerDecade = 5

// LogBounds returns log-spaced inclusive upper bounds at five per decade,
// from lo up to the first bound at or above hi. lo and hi must be positive
// with lo < hi. The slice is clipped, so an append to it copies: every
// fixed layout is built once, in a package-level variable, and shared
// read-only by every histogram over it.
func LogBounds(lo, hi float64) []float64 {
	if !(lo > 0 && hi > lo) {
		panic(fmt.Sprintf("stats: bad bucket range [%g, %g]", lo, hi))
	}
	var bounds []float64
	for e := math.Log10(lo); ; e += 1.0 / bucketsPerDecade {
		v := math.Pow(10, e)
		bounds = append(bounds, v)
		if v >= hi {
			return slices.Clip(bounds)
		}
	}
}

// LatencyLayout is the response-time layout of core.Result's ReadHist and
// WriteHist, in milliseconds: LogBounds(1e-3, 6e5), 45 bounds from 1 µs to
// 630,957 ms (≈631 s). Fine resolution where flash operations live, coarse
// where disk spin-ups live. core.Run adds each response with AddDuration.
var LatencyLayout = NewDurationLayout(LogBounds(1e-3, 6e5), units.Millisecond)

// NewLatencyHistogram returns an empty histogram over LatencyLayout.
//
// LatencyLayout is one of two latency layouts. The other, LogBounds(1e-3,
// 1e6), has 46 bounds, the same 45 plus a top of 1.0000000000000083e6 ms
// (≈1000 s); it buckets obsreport's per-kind durations and the fleet's
// per-run energy. Both are kept: moving the result layout's top would move
// storagesim -v's percentiles and the fleet's for every response between
// 631 s and 1000 s.
func NewLatencyHistogram() *Histogram {
	return LatencyLayout.NewHistogram()
}

// Histogram is a fixed-bucket distribution over non-negative float64
// samples: response times for storagesim -v and the fleet, every
// distribution obsreport builds, and the metrics registry's. Beside the
// bucket counts it keeps the exact sample count, sum and extremes, so
// Quantile can interpolate inside a bucket and clamp to the observed range.
// It is not safe for concurrent use; obs.Histogram puts one behind a mutex.
type Histogram struct {
	// Bounds are the inclusive upper edges of the buckets, strictly
	// ascending; a sample above the last bound lands in Overflow. They are
	// shared with every histogram built over the same layout, so they are
	// read-only.
	Bounds   []float64 `json:"bounds"`
	Counts   []int64   `json:"counts"`
	Overflow int64     `json:"overflow"`
	// N, Sum, Min and Max are exact over every sample added or merged in.
	// N is the sum of Counts and Overflow; Min and Max read 0 while N is 0.
	N   int64   `json:"n"`
	Sum float64 `json:"sum"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// NewHistogram builds an empty histogram over strictly ascending bucket
// bounds; it panics on bounds that are not. The histogram keeps bounds
// without copying them, so the caller must not change them afterwards.
func NewHistogram(bounds []float64) *Histogram {
	checkBounds(bounds)
	return &Histogram{Bounds: bounds, Counts: make([]int64, len(bounds))}
}

// checkBounds panics unless bounds are strictly ascending.
func checkBounds(bounds []float64) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
}

// Bucket returns the index of the bucket x falls in: the first bound ≥ x,
// or len(bounds), the overflow bucket, when x is above every bound or NaN.
// It buckets float samples (Add); durations go through
// DurationLayout.Bucket, which gives the same index for every converted
// duration without a float search.
func Bucket(bounds []float64, x float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bounds[mid] >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Add records one float sample. Durations go through AddDuration.
func (h *Histogram) Add(x float64) { h.add(x, Bucket(h.Bounds, x)) }

// add records sample x in bucket i, the overflow bucket when i is
// len(h.Bounds).
func (h *Histogram) add(x float64, i int) {
	if h.N == 0 || x < h.Min {
		h.Min = x
	}
	if h.N == 0 || x > h.Max {
		h.Max = x
	}
	h.N++
	h.Sum += x
	if i < len(h.Counts) {
		h.Counts[i]++
	} else {
		h.Overflow++
	}
}

// Merge folds o's samples into h, as if each had been added to h. Both
// must share one bucket layout; a mismatch is a programming error and
// panics. Sums add shard by shard, so a reproducible merged Sum needs a
// fixed merge order.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || h == o {
		return
	}
	if !slices.Equal(h.Bounds, o.Bounds) {
		panic("stats: merging histograms with different bucket layouts")
	}
	if o.N == 0 {
		return
	}
	if h.N == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if h.N == 0 || o.Max > h.Max {
		h.Max = o.Max
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Overflow += o.Overflow
	h.N += o.N
	h.Sum += o.Sum
}

// Mean returns the exact sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// rank returns the 1-based rank of the q-quantile among N samples.
func (h *Histogram) rank(q float64) int64 {
	return max(int64(math.Ceil(q*float64(h.N))), 1)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1). It finds the bucket that
// holds the quantile's rank and interpolates geometrically between the
// bucket's edges by the rank's place within it (the right interpolation for
// log-spaced edges), so the estimate lands within one bucket ratio of the
// true value. The estimate is clamped to the observed [Min, Max]; q ≤ 0
// returns Min, q ≥ 1 and a quantile in the overflow bucket return Max. It
// returns 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	target := h.rank(q)
	var seen int64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+c >= target {
			frac := (float64(target-seen) - 0.5) / float64(c)
			return h.clamp(interpolate(h.lower(i), h.Bounds[i], frac))
		}
		seen += c
	}
	return h.Max
}

// QuantileBound returns an upper bound on the q-quantile (0 ≤ q ≤ 1): the
// upper edge of the bucket that holds it, +Inf when that is the overflow
// bucket, and 0 with no samples. It is the conservative "p99 ≤ x" that
// storagesim -v and the -metrics dump print.
func (h *Histogram) QuantileBound(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	target := h.rank(q)
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= target {
			return h.Bounds[i]
		}
	}
	return math.Inf(1)
}

// lower returns the lower edge of bucket i: the previous bound, or for the
// first bucket one bucket ratio below it (log-spaced layouts have no zero
// edge to interpolate toward).
func (h *Histogram) lower(i int) float64 {
	if i > 0 {
		return h.Bounds[i-1]
	}
	if len(h.Bounds) > 1 && h.Bounds[0] > 0 {
		return h.Bounds[0] * h.Bounds[0] / h.Bounds[1]
	}
	return 0
}

// clamp limits an estimate to the observed [Min, Max].
func (h *Histogram) clamp(v float64) float64 {
	if v < h.Min {
		return h.Min
	}
	if v > h.Max {
		return h.Max
	}
	return v
}

// interpolate places frac ∈ (0,1) between lo and hi, geometrically when
// both edges are positive (log-spaced buckets), linearly otherwise.
func interpolate(lo, hi, frac float64) float64 {
	if lo > 0 && hi > 0 {
		return lo * math.Pow(hi/lo, frac)
	}
	return lo + (hi-lo)*frac
}
