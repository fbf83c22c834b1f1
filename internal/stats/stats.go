// Package stats provides streaming summary statistics for response times and
// other simulator observables.
//
// The paper reports mean, maximum, and standard deviation for read and write
// response times (Tables 4(a)–(c)), so Summary tracks exactly those using
// Welford's online algorithm: numerically stable, O(1) memory, and exact for
// the mean regardless of sample count.
package stats

import (
	"fmt"
	"math"
	"sort"

	"mobilestorage/internal/units"
)

// Summary accumulates streaming mean/max/σ over float64 samples.
// The zero value is ready to use.
type Summary struct {
	n int64
	// fn mirrors n as a float64. The Welford update divides by the sample
	// count every Add, and fn keeps the int→float conversion off that
	// critical path; float64 holds counts exactly far past any trace size.
	fn   float64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	max  float64
	min  float64
	sum  float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	s.fn++
	if s.n == 1 {
		s.max = x
		s.min = x
	} else {
		if x > s.max {
			s.max = x
		}
		if x < s.min {
			s.min = x
		}
	}
	s.sum += x
	delta := x - s.mean
	s.mean += delta / s.fn
	s.m2 += delta * (x - s.mean)
}

// AddTime records a duration sample in milliseconds, the unit the paper's
// tables use.
func (s *Summary) AddTime(t units.Time) { s.Add(t.Milliseconds()) }

// N returns the number of samples recorded.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Sum returns the total of all samples.
func (s *Summary) Sum() float64 { return s.sum }

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// StdDev returns the population standard deviation (the paper's σ), or 0
// with fewer than two samples.
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n))
}

// Merge folds other into s, as if all of other's samples had been Added.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	tot := n1 + n2
	s.mean += delta * n2 / tot
	s.m2 += other.m2 + delta*delta*n1*n2/tot
	s.n += other.n
	s.fn += other.fn
	s.sum += other.sum
	if other.max > s.max {
		s.max = other.max
	}
	if other.min < s.min {
		s.min = other.min
	}
}

// String renders "mean/max/σ" in the style of the paper's tables.
func (s *Summary) String() string {
	return fmt.Sprintf("mean=%.2f max=%.1f σ=%.1f (n=%d)", s.Mean(), s.Max(), s.StdDev(), s.n)
}

// NewLatencyHistogram returns a histogram with log-spaced bounds from 1 µs
// to ~1000 s (five buckets per decade), suitable for response times in
// milliseconds: fine resolution where flash operations live, coarse where
// disk spin-ups live.
func NewLatencyHistogram() *Histogram {
	var bounds []float64
	for exp := -3.0; v(exp) <= 1e6; exp += 0.2 {
		bounds = append(bounds, v(exp))
	}
	return NewHistogram(bounds)
}

func v(exp float64) float64 { return math.Pow(10, exp) }

// Histogram is a fixed-bucket histogram over non-negative float64 samples,
// used for latency distribution reporting (Figure 1-style plots).
type Histogram struct {
	// Bounds are the inclusive upper edges of each bucket; samples above the
	// last bound land in the overflow bucket.
	Bounds   []float64
	Counts   []int64
	Overflow int64

	// Two-entry memo for recent in-bounds samples: simulated latencies
	// repeat exact values (the same transfer size costs the same time), so
	// re-searching for an identical float is pure waste. Two entries matter
	// because streams often alternate between a pair of values (e.g. cache
	// hits and one device service time), which defeats a single entry.
	memoX   float64
	memoI   int32
	memoOK  bool
	memoX2  float64
	memoI2  int32
	memoOK2 bool
}

// NewHistogram builds a histogram with the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{Bounds: b, Counts: make([]int64, len(bounds))}
}

// Add records one sample. The binary search lands in the same bucket a
// linear first-bound-≥-x scan would: SearchFloat64s returns the smallest i
// with Bounds[i] >= x.
func (h *Histogram) Add(x float64) {
	if h.memoOK && x == h.memoX {
		h.Counts[h.memoI]++
		return
	}
	if h.memoOK2 && x == h.memoX2 {
		h.Counts[h.memoI2]++
		h.memoX, h.memoX2 = h.memoX2, h.memoX
		h.memoI, h.memoI2 = h.memoI2, h.memoI
		return
	}
	if i := sort.SearchFloat64s(h.Bounds, x); i < len(h.Bounds) {
		h.Counts[i]++
		h.memoX2, h.memoI2, h.memoOK2 = h.memoX, h.memoI, h.memoOK
		h.memoX, h.memoI, h.memoOK = x, int32(i), true
		return
	}
	h.Overflow++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() int64 {
	t := h.Overflow
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) using the
// bucket edges; it returns +Inf if the quantile falls in the overflow bucket.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= target {
			return h.Bounds[i]
		}
	}
	return math.Inf(1)
}
