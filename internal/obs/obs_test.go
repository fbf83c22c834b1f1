package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mobilestorage/internal/stats/statstest"
	"mobilestorage/internal/units"
)

func TestNilSafety(t *testing.T) {
	// Every operation on a nil scope or nil metric must be a no-op: this is
	// the contract that lets devices instrument unconditionally.
	var s *Scope
	s.Counter("x").Inc()
	s.Counter("x").Add(5)
	s.Gauge("g").Set(1.5)
	s.Histogram("h").Observe(3 * units.Millisecond)
	s.Emit(Event{Kind: KindOther})
	for k := Kind(0); k < numKinds; k++ {
		if s.Wants(k) {
			t.Errorf("nil scope wants %v", k)
		}
	}
	if s.Registry() != nil {
		t.Error("nil scope has a registry")
	}
	if got := s.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	var h *Histogram
	h.Observe(units.Millisecond)
	var g *Gauge
	g.Set(2)
	if g.Value() != 0 {
		t.Error("nil gauge holds a value")
	}
	if NewScope(nil, nil) != nil {
		t.Error("NewScope(nil, nil) should collapse to the nil scope")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("disk.spin_ups")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if r.Counter("disk.spin_ups") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("util")
	g.Set(0.8)
	if got := g.Value(); got != 0.8 {
		t.Errorf("gauge = %g", got)
	}
	snap := r.Counters()
	if snap["disk.spin_ups"] != 3 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms")
	// 10^10 ms lies past the layout's top bound of 10^7 ms.
	for _, d := range []units.Time{500, 500, 2 * units.Millisecond, 10 * units.Millisecond, 1e13} {
		h.Observe(d)
	}
	snap := r.Histograms()["lat_ms"]
	if snap.N != 5 || snap.Sum != 0.5+0.5+2+10+1e10 {
		t.Errorf("N %d, Sum %g, want 5, %g", snap.N, snap.Sum, 0.5+0.5+2+10+1e10)
	}
	// The 3rd of 5 samples is 2 ms; its bucket's upper edge is ≈2.5.
	p50 := snap.QuantileBound(0.5)
	if p50 < 2 || p50 > 4 {
		t.Errorf("p50 = %g, want ≈2–4", p50)
	}
	if p40 := snap.QuantileBound(0.4); p40 < 0.5 || p40 > 1 {
		t.Errorf("p40 = %g, want ≈0.5–1", p40)
	}
	if !math.IsInf(snap.QuantileBound(0.999), 1) {
		t.Error("overflow sample should push the tail quantile bound to +Inf")
	}
}

// TestHistogramLayout checks the registry layout's integer thresholds
// against the float rule: the duration in milliseconds, searched with
// stats.Bucket.
func TestHistogramLayout(t *testing.T) {
	statstest.CheckLayout(t, HistogramLayout, units.Time.Milliseconds)
}

// Observe records what stats.Histogram.Add records for the duration in
// milliseconds at the layout's edges: a duration past the top bound lands
// in the overflow bucket, and a negative one in the first bucket. A
// duration cannot be NaN; stats tests Add's NaN rule.
func TestHistogramNaNOverflow(t *testing.T) {
	top := HistogramLayout.Threshold(len(HistogramLayout.Bounds) - 1)
	ds := []units.Time{top, top + 1, math.MaxInt64, -1, math.MinInt64}
	r := NewRegistry()
	want := HistogramLayout.NewHistogram()
	for _, d := range ds {
		r.Histogram("edge").Observe(d)
		want.Add(d.Milliseconds())
	}
	if got := r.Histograms()["edge"]; !reflect.DeepEqual(got, *want) {
		t.Errorf("Observe: %+v\nAdd:     %+v", got, *want)
	}
	if want.Overflow != 2 || want.Counts[0] != 2 {
		t.Errorf("overflow %d, first bucket %d, want 2 and 2", want.Overflow, want.Counts[0])
	}
}

func TestHistogramMinMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms")
	if s := r.Histograms()["lat_ms"]; s.Min != 0 || s.Max != 0 {
		t.Errorf("empty extremes [%g, %g], want [0, 0]", s.Min, s.Max)
	}
	for _, d := range []units.Time{42 * units.Millisecond, 250, 1e12, 7 * units.Millisecond} {
		h.Observe(d)
	}
	// Exact, not bucket edges — 10^9 ms landed in the overflow bucket.
	snap := r.Histograms()["lat_ms"]
	if snap.Min != 0.25 || snap.Max != 1e9 {
		t.Errorf("snapshot extremes [%g, %g], want [0.25, 1e9]", snap.Min, snap.Max)
	}
	// An empty snapshot reads 0 for both extremes.
	r.Histogram("none")
	if s := r.Histograms()["none"]; s.Min != 0 || s.Max != 0 || s.N != 0 {
		t.Errorf("empty snapshot N %d, extremes [%g, %g], want 0, [0, 0]", s.N, s.Min, s.Max)
	}
}

// Concurrent observers must agree on the exact extremes and count: the
// lock serializes them, so no sample is lost.
func TestHistogramMinMaxConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Observe(units.Time(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	s := r.Histograms()["c"]
	if s.Min != 0.001 || s.Max != 8 {
		t.Errorf("extremes [%g, %g] ms, want [0.001, 8]", s.Min, s.Max)
	}
	if s.N != 8000 {
		t.Errorf("count %d, want 8000", s.N)
	}
}

func TestTee(t *testing.T) {
	a := NewCollector(AllKinds)
	b := NewCollector(AllKinds)
	tr := Tee(nil, a, nil, b)
	tr.Emit(Event{T: 1, Kind: EvCacheHit})
	tr.Emit(Event{T: 2, Kind: EvCacheMiss})
	for name, c := range map[string]*Collector{"a": a, "b": b} {
		ev := c.Events()
		if len(ev) != 2 || ev[0].T != 1 || ev[1].T != 2 {
			t.Errorf("tee branch %s saw %v", name, ev)
		}
	}
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee with no live tracers should be nil (not tracing)")
	}
	if Tee(nil, a) != Tracer(a) {
		t.Error("Tee with one live tracer should return it unwrapped")
	}
	// A nil Tee result plugged into a scope means tracing stays off.
	if NewScope(NewRegistry(), Tee(nil)).Wants(EvCacheHit) {
		t.Error("scope with nil tee wants events")
	}
}

func TestNDJSONSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	s.Emit(Event{T: 42, Kind: EvDiskSpinUp, Dev: "cu140-datasheet", Dur: 1000})
	s.Emit(Event{T: 43, Kind: EvCardErase, Dev: "intel", Addr: 7, Size: 3})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	// Each line must be valid JSON with the expected fields.
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if m["kind"] != "disk.spinup" || m["t_us"] != float64(42) || m["dur_us"] != float64(1000) {
		t.Errorf("line 0 = %v", m)
	}
	if _, ok := m["addr"]; ok {
		t.Error("zero addr should be omitted")
	}
	if err := json.Unmarshal([]byte(lines[1]), &m); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if m["addr"] != float64(7) || m["size"] != float64(3) {
		t.Errorf("line 1 = %v", m)
	}
}

func TestConcurrentUse(t *testing.T) {
	// Metric handles and tracers must be safe under concurrent emitters
	// (parallel experiment sweeps share a scope). Run with -race.
	reg := NewRegistry()
	col := NewCollector(AllKinds)
	sc := NewScope(reg, col)
	c := sc.Counter("shared")
	h := sc.Histogram("h")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(units.Time(i%100 + 1))
				sc.Emit(Event{T: int64(i), Kind: KindOther})
				sc.Counter("shared").Add(0)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if n := len(col.Events()); n != 8000 {
		t.Errorf("collector saw %d events, want 8000", n)
	}
}

func TestRegistryString(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.second").Add(2)
	r.Counter("a.first").Inc()
	r.Gauge("z.gauge").Set(1.25)
	r.Histogram("c.hist_ms").Observe(3 * units.Millisecond)
	out := r.String()
	ia, ib := strings.Index(out, "a.first"), strings.Index(out, "b.second")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("counters not sorted:\n%s", out)
	}
	if !strings.Contains(out, "1.25") {
		t.Errorf("gauge missing:\n%s", out)
	}
	// 3 ms lies in the bucket whose upper edge is 10^0.6 ≈ 3.98 ms.
	if want := fmt.Sprintf("%-28s n=1 p50≤%g p99≤%g\n", "c.hist_ms", HistogramLayout.Bounds[18], HistogramLayout.Bounds[18]); !strings.HasSuffix(out, want) {
		t.Errorf("histogram line %q missing:\n%s", want, out)
	}
}

// Unregister drops every metric under a prefix (how the fleet service
// expires a retired job's metrics) while held handles keep working.
func TestRegistryUnregister(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fleet.job.j1.runs_done")
	c.Inc()
	r.Gauge("fleet.job.j1.queue_depth").Set(3)
	r.Histogram("fleet.job.j1.lat").Observe(2 * units.Millisecond)
	r.Counter("fleet.job.j2.runs_done").Inc()

	r.Unregister("fleet.job.j1.")
	out := r.String()
	if strings.Contains(out, "fleet.job.j1.") {
		t.Errorf("j1 metrics survived Unregister:\n%s", out)
	}
	if !strings.Contains(out, "fleet.job.j2.runs_done") {
		t.Errorf("j2 metrics lost:\n%s", out)
	}
	c.Inc() // stale handle: harmless, just no longer exported
	if got := c.Value(); got != 2 {
		t.Errorf("held handle = %d, want 2", got)
	}
	var nilReg *Registry
	nilReg.Unregister("x") // must not panic
}

// Gauge.Add must not lose updates under concurrency (it backs the fleet
// scheduler's queue-depth and busy-worker gauges) and must tolerate nil.
func TestGaugeAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 12 {
		t.Errorf("Get() = %g, want 12", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 12 {
		t.Errorf("after balanced concurrent adds Get() = %g, want 12", got)
	}

	var nilG *Gauge
	nilG.Add(1) // must not panic
}
