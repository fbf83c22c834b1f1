package obs

import (
	"reflect"
	"testing"

	"mobilestorage/internal/units"
)

func TestSamplerBoundaries(t *testing.T) {
	reg := NewRegistry()
	ops := reg.Counter("ops")

	var prepared []int64
	s := NewSampler(reg, 10, func(tUs int64) { prepared = append(prepared, tUs) })

	// Records at t=3, 12, 37; run ends at 45.
	s.Tick(3) // before the first boundary: no sample
	ops.Inc()
	s.Tick(12) // crosses boundary 10
	ops.Inc()
	s.Tick(37) // crosses 20 and 30
	ops.Inc()
	s.Finish(45) // crosses 40, plus the final point at 45

	tl := s.Timeline()
	if tl.IntervalUs != 10 {
		t.Fatalf("interval %d", tl.IntervalUs)
	}
	wantT := []int64{10, 20, 30, 40, 45}
	if len(tl.Points) != len(wantT) {
		t.Fatalf("%d points, want %d: %+v", len(tl.Points), len(wantT), tl.Points)
	}
	for i, p := range tl.Points {
		if p.TUs != wantT[i] {
			t.Errorf("point %d at %d, want %d", i, p.TUs, wantT[i])
		}
	}
	if !reflect.DeepEqual(prepared, wantT) {
		t.Errorf("prepare times %v, want %v", prepared, wantT)
	}
	// Counter values: boundary 10 sampled during Tick(12), after one Inc at
	// t=3 but before the t=12 record's Inc; 20 and 30 during Tick(37).
	wantOps := []int64{1, 2, 2, 3, 3}
	if got := tl.Counter("ops"); !reflect.DeepEqual(got, wantOps) {
		t.Errorf("ops series %v, want %v", got, wantOps)
	}
}

func TestSamplerFinishOnBoundary(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 10, nil)
	s.Tick(25)
	s.Finish(30)
	tl := s.Timeline()
	wantT := []int64{10, 20, 30}
	if len(tl.Points) != len(wantT) {
		t.Fatalf("%d points, want %d", len(tl.Points), len(wantT))
	}
	for i, p := range tl.Points {
		if p.TUs != wantT[i] {
			t.Errorf("point %d at %d, want %d", i, p.TUs, wantT[i])
		}
	}
}

func TestSamplerShortRun(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 1000, nil)
	s.Tick(3)
	s.Finish(7)
	if got := len(s.Timeline().Points); got != 1 {
		t.Fatalf("%d points, want 1 (final)", got)
	}
	if s.Timeline().Points[0].TUs != 7 {
		t.Fatalf("final point at %d, want 7", s.Timeline().Points[0].TUs)
	}
}

func TestSamplerNil(t *testing.T) {
	var s *Sampler
	s.Tick(5)    // must not panic
	s.Finish(10) // must not panic
	if s.Timeline() != nil {
		t.Fatal("nil sampler returned a timeline")
	}
	if NewSampler(nil, 10, nil) != nil {
		t.Fatal("sampler without a registry")
	}
	if NewSampler(NewRegistry(), 0, nil) != nil {
		t.Fatal("sampler with zero interval")
	}
}

func TestTimelineGaugeSeries(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("energy.total_j")
	s := NewSampler(reg, 10, nil)
	g.Set(1.5)
	s.Tick(10)
	g.Set(4.25)
	s.Finish(20)
	got := s.Timeline().Gauge("energy.total_j")
	want := []float64{1.5, 4.25}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gauge series %v, want %v", got, want)
	}
	var tl *Timeline
	if tl.Gauge("x") != nil || tl.Counter("x") != nil {
		t.Fatal("nil timeline series not nil")
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector(AllKinds)
	c.Emit(Event{T: 1, Kind: EvCacheHit})
	c.Emit(Event{T: 2, Kind: EvCardClean, Addr: 3})
	got := c.Events()
	if len(got) != 2 || got[0].T != 1 || got[1].Addr != 3 {
		t.Fatalf("collector events %+v", got)
	}

	filtered := NewCollector(Kinds(EvCardClean))
	filtered.Emit(Event{Kind: EvCacheHit})
	filtered.Emit(Event{Kind: EvCardClean})
	if got := filtered.Events(); len(got) != 1 || got[0].Kind != EvCardClean {
		t.Fatalf("filtered events %+v", got)
	}
}

func TestHistogramSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	// The last, 2·10^7 ms, lands in the overflow bucket.
	for _, d := range []units.Time{500, 5 * units.Millisecond, 50 * units.Millisecond, 2e10} {
		h.Observe(d)
	}
	if s := r.Histograms()["h"]; s.Sum != 20000055.5 || s.N != 4 || s.Overflow != 1 {
		t.Fatalf("snapshot sum %g over %d samples (%d overflow), want 20000055.5 over 4 (1)", s.Sum, s.N, s.Overflow)
	}
}
