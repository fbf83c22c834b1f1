package stats

import (
	"math"
	"slices"
	"testing"
)

// relErr returns |got-want|/want.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, x := range []float64{0.5, 0.9, 5, 50, 500} {
		h.Add(x)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 1 || h.Overflow != 1 {
		t.Errorf("counts = %v overflow = %d", h.Counts, h.Overflow)
	}
	if h.N != 5 || h.Sum != 556.4 || h.Min != 0.5 || h.Max != 500 {
		t.Errorf("N %d, Sum %g, extremes [%g, %g], want 5, 556.4, [0.5, 500]", h.N, h.Sum, h.Min, h.Max)
	}
	if q := h.QuantileBound(0.5); q != 10 {
		t.Errorf("QuantileBound(0.5) = %g, want 10", q)
	}
	if q := h.QuantileBound(1.0); !math.IsInf(q, 1) {
		t.Errorf("QuantileBound(1.0) = %g, want +Inf (overflow)", q)
	}
	if q := h.Quantile(1.0); q != 500 {
		t.Errorf("Quantile(1.0) = %g, want the exact max 500", q)
	}
}

// Add sends a NaN sample to the overflow bucket, as a first-bound-≥-x scan
// does.
func TestHistogramNaNOverflow(t *testing.T) {
	h := NewHistogram(LogBounds(1, 100))
	h.Add(math.NaN())
	if h.Overflow != 1 || h.N != 1 || slices.Max(h.Counts) != 0 {
		t.Errorf("Add(NaN): counts %v overflow %d, want overflow 1", h.Counts, h.Overflow)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram([]float64{1})
	if q := h.QuantileBound(0.9); q != 0 {
		t.Errorf("empty QuantileBound = %g, want 0", q)
	}
	if q := h.Quantile(0.9); q != 0 {
		t.Errorf("empty Quantile = %g, want 0", q)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("descending bounds did not panic")
		}
	}()
	NewHistogram([]float64{10, 1})
}

// frozenLatencyBounds is NewLatencyHistogram's generator before LogBounds
// replaced it, kept verbatim as the reference.
func frozenLatencyBounds() []float64 {
	var bounds []float64
	for exp := -3.0; math.Pow(10, exp) <= 1e6; exp += 0.2 {
		bounds = append(bounds, math.Pow(10, exp))
	}
	return bounds
}

// frozenRegistryBounds is the bucket generator package obs exported
// before LogBounds replaced it, kept verbatim as the reference.
func frozenRegistryBounds(min, max float64) []float64 {
	var bounds []float64
	step := 1.0 / 5
	for e := math.Log10(min); ; e += step {
		v := math.Pow(10, e)
		bounds = append(bounds, v)
		if v >= max {
			return bounds
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLayoutsPinned pins every bucket layout the repo builds, bit for bit,
// against the generators LogBounds replaced: the result layout's 45 bounds
// topping out at 630,957 ms, and LogBounds at each range in use.
func TestLayoutsPinned(t *testing.T) {
	got := NewLatencyHistogram().Bounds
	if !sameBits(got, frozenLatencyBounds()) || len(got) != 45 || got[44] != 630957.3444801981 {
		t.Errorf("NewLatencyHistogram: %d bounds, top %v; want the frozen 45, top 630957.3444801981", len(got), got[len(got)-1])
	}
	for _, c := range []struct {
		use    string
		lo, hi float64
		n      int
	}{
		{"obsreport latency and fleet energy", 1e-3, 1e6, 46},
		{"sleep durations (s)", 1e-2, 1e5, 36},
		{"live blocks per clean", 1, 1e5, 26},
		{"fault backoff", 1e-3, 1e3, 31},
		{"flashcard.clean_ms and disk.sleep_ms", 1e-3, 1e7, 51},
	} {
		got := LogBounds(c.lo, c.hi)
		if !sameBits(got, frozenRegistryBounds(c.lo, c.hi)) || len(got) != c.n {
			t.Errorf("LogBounds(%g, %g), %s: %d bounds %v, want the frozen %d", c.lo, c.hi, c.use, len(got), got, c.n)
		}
	}
	// The two latency layouts share their first 45 bounds; the report
	// layout adds one more, just past 1000 s.
	report := LogBounds(1e-3, 1e6)
	if !sameBits(report[:45], NewLatencyHistogram().Bounds) || report[45] != 1.0000000000000083e6 {
		t.Errorf("report latency layout diverges from the result layout: top %v", report[len(report)-1])
	}
}

// refBucket is the linear first-bound-≥-x scan obsreport's histogram used
// before Bucket's binary search replaced it, kept as the reference.
func refBucket(bounds []float64, x float64) int {
	for i, b := range bounds {
		if x <= b {
			return i
		}
	}
	return len(bounds)
}

// fuzzSamples decodes fuzz bytes into a split point, a quantile and
// finite, non-negative samples over bounds. Each sample is a tag byte and
// its payload: an integer of up to 40 bits (in ms, up to 2^40), a value
// equal to one of the bounds, or a value just past the top bound.
func fuzzSamples(bounds []float64, data []byte) (split int, q float64, xs []float64) {
	if len(data) < 3 {
		return 0, 0, nil
	}
	splitByte, qRaw := int(data[0]), uint16(data[1])<<8|uint16(data[2])
	q = float64(qRaw) / math.MaxUint16
	top := bounds[len(bounds)-1]
	for rest := data[3:]; len(rest) > 0 && len(xs) < 4096; {
		tag := rest[0]
		rest = rest[1:]
		switch tag % 3 {
		case 0:
			var v uint64
			for i := 0; i < 5 && len(rest) > 0; i++ {
				v = v<<8 | uint64(rest[0])
				rest = rest[1:]
			}
			xs = append(xs, float64(v))
		case 1:
			if len(rest) == 0 {
				break
			}
			xs = append(xs, bounds[int(rest[0])%len(bounds)])
			rest = rest[1:]
		case 2:
			xs = append(xs, math.Nextafter(top, math.Inf(1))*(1+float64(tag/3)*1e-3))
		}
	}
	return splitByte % (len(xs) + 1), q, xs
}

// FuzzHistogram checks the histogram's invariants on decoded samples:
// merging two halves equals adding every sample to one histogram, field for
// field; N counts every bucket; each sample lands where the reference scan
// puts it; and Quantile stays inside [Min, Max], under QuantileBound, and
// non-decreasing in q.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{2, 0x80, 0x00, 0, 0, 0, 0, 1, 0, 1, 7, 2, 3, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0xff, 0xff, 1, 44, 1, 0, 2, 5})
	f.Add([]byte{9, 0x19, 0x99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0x27, 0x10, 1, 20, 1, 21})
	f.Add([]byte{1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		layout := NewLatencyHistogram().Bounds
		split, q, xs := fuzzSamples(layout, data)
		whole, a, b := NewHistogram(layout), NewHistogram(layout), NewHistogram(layout)
		want := make([]int64, len(layout)+1) // the reference scan's counts, overflow last
		integral := true
		for i, x := range xs {
			whole.Add(x)
			if i < split {
				a.Add(x)
			} else {
				b.Add(x)
			}
			want[refBucket(layout, x)]++
			integral = integral && x == math.Trunc(x)
		}
		if !slices.Equal(whole.Counts, want[:len(layout)]) || whole.Overflow != want[len(layout)] {
			t.Fatalf("counts %v overflow %d, reference scan %v", whole.Counts, whole.Overflow, want)
		}

		a.Merge(b)
		sumOK := a.Sum == whole.Sum || !integral && relErr(a.Sum, whole.Sum) <= 1e-12
		if !slices.Equal(a.Bounds, whole.Bounds) || !slices.Equal(a.Counts, whole.Counts) || a.Overflow != whole.Overflow ||
			a.N != whole.N || a.Min != whole.Min || a.Max != whole.Max || !sumOK {
			t.Fatalf("merged halves %+v\n!= whole %+v", a, whole)
		}

		n := whole.Overflow
		for _, c := range whole.Counts {
			n += c
		}
		if n != whole.N || whole.N != int64(len(xs)) {
			t.Fatalf("N %d, buckets+overflow %d, samples %d", whole.N, n, len(xs))
		}

		est := whole.Quantile(q)
		if est < whole.Min || est > whole.Max {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, est, whole.Min, whole.Max)
		}
		if bound := whole.QuantileBound(q); est > bound {
			t.Fatalf("Quantile(%v) = %v above QuantileBound %v", q, est, bound)
		}
		qs := []float64{q}
		for i := 0; i <= 64; i++ {
			qs = append(qs, float64(i)/64)
		}
		slices.Sort(qs)
		for i := 1; i < len(qs); i++ {
			if lo, hi := whole.Quantile(qs[i-1]), whole.Quantile(qs[i]); hi < lo {
				t.Fatalf("Quantile(%v) = %v below Quantile(%v) = %v", qs[i], hi, qs[i-1], lo)
			}
		}
	})
}
