package stats

import (
	"math"
	"testing"
	"testing/quick"

	"mobilestorage/internal/units"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.StdDev() != 0 {
		t.Errorf("zero-value summary not all-zero: %v", &s)
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %g, want 5", s.Mean())
	}
	if s.StdDev() != 2 { // classic example with population σ = 2
		t.Errorf("StdDev = %g, want 2", s.StdDev())
	}
	if s.Max() != 9 || s.Min() != 2 {
		t.Errorf("Max/Min = %g/%g, want 9/2", s.Max(), s.Min())
	}
}

func TestSummaryAddTime(t *testing.T) {
	var s Summary
	s.AddTime(25700 * units.Microsecond)
	if !almostEqual(s.Mean(), 25.7, 1e-12) {
		t.Errorf("AddTime mean = %g ms, want 25.7", s.Mean())
	}
}

// TestSummaryMatchesNaive compares the streaming statistics against a
// two-pass computation on random samples.
func TestSummaryMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Summary
		var sum float64
		for _, v := range raw {
			s.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		mx, mn := float64(raw[0]), float64(raw[0])
		for _, v := range raw {
			d := float64(v) - mean
			m2 += d * d
			mx = math.Max(mx, float64(v))
			mn = math.Min(mn, float64(v))
		}
		sd := math.Sqrt(m2 / float64(len(raw)))
		return almostEqual(s.Mean(), mean, 1e-9) &&
			almostEqual(s.StdDev(), sd, 1e-9) &&
			s.Max() == mx && s.Min() == mn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mergeMatches reports whether merging the summaries of a and b agrees
// with one summary of all their samples. The mean's tolerance scales with
// the samples' magnitude, max(|Min|, |Max|), because that is what the
// rounding error of Welford's update scales with; a tolerance relative to
// the mean itself cannot hold when the true mean is 0.
func mergeMatches(a, b []int16) bool {
	var sa, sb, all Summary
	for _, v := range a {
		sa.Add(float64(v))
		all.Add(float64(v))
	}
	for _, v := range b {
		sb.Add(float64(v))
		all.Add(float64(v))
	}
	sa.Merge(sb)
	if sa.N() != all.N() {
		return false
	}
	if sa.N() == 0 {
		return true
	}
	scale := math.Max(math.Abs(all.Min()), math.Abs(all.Max()))
	return math.Abs(sa.Mean()-all.Mean()) <= 1e-9*scale &&
		almostEqual(sa.StdDev(), all.StdDev(), 1e-9) &&
		sa.Max() == all.Max() && sa.Min() == all.Min()
}

// TestSummaryMerge checks Merge equals adding all samples to one summary.
func TestSummaryMerge(t *testing.T) {
	if err := quick.Check(mergeMatches, nil); err != nil {
		t.Error(err)
	}
}

// TestSummaryMergeZeroMean pins an input whose true mean is exactly 0: the
// sequential mean is 0 and the merged one about -9.09e-13, a residue of
// about 3e-17 of the samples' magnitude.
func TestSummaryMergeZeroMean(t *testing.T) {
	if !mergeMatches([]int16{11192, -23664}, []int16{26715, -15402, 1159}) {
		t.Error("merge of a zero-mean input disagrees with the sequential summary")
	}
}
