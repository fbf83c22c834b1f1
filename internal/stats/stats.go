// Package stats provides streaming summary statistics for response times and
// other simulator observables.
//
// The paper reports mean, maximum, and standard deviation for read and write
// response times (Tables 4(a)–(c)), so Summary tracks exactly those using
// Welford's online algorithm: numerically stable, O(1) memory, and exact for
// the mean regardless of sample count. Histogram adds percentiles over fixed
// log-spaced buckets.
package stats

import (
	"fmt"
	"math"

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
	if other.max > s.max {
		s.max = other.max
	}
	if other.min < s.min {
		s.min = other.min
	}
}

// String renders "mean/max/σ" in the style of the paper's tables.
func (s *Summary) String() string {
	return fmt.Sprintf("mean=%.2f max=%.2f σ=%.2f (n=%d)", s.Mean(), s.Max(), s.StdDev(), s.n)
}
