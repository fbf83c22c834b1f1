// Package obs is the simulator's observability layer: a zero-dependency,
// allocation-light metrics registry (counters, gauges, and duration
// histograms over one fixed log-scale layout) plus an optional structured
// event tracer that devices emit into at state transitions (disk
// spin-up/spin-down, SRAM flush, flash erase, segment clean, cache
// hit/miss).
//
// Instrumentation must never change simulation results, so the whole API is
// nil-tolerant: a nil *Scope, nil *Counter, or nil *Histogram is a valid
// no-op receiver, which keeps the un-instrumented hot path to a single nil
// check per site. Counters and gauges use atomic operations and a histogram
// takes its own mutex, so a Scope shared across parallel experiment workers
// stays race-free.
//
// See docs/OBSERVABILITY.md for the metric name and event schema reference.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mobilestorage/internal/stats"
	"mobilestorage/internal/units"
)

// Counter is a monotonically increasing int64 metric. The nil Counter
// discards increments and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n may be any non-negative amount; negative deltas are a
// programming error but are not checked on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64 metric. The nil Gauge discards sets and
// reads as zero.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (negative to decrease) with a CAS loop, so
// concurrent adjusters — e.g. fleet workers tracking queue depth and busy
// workers — never lose an update.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the last value set.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// HistogramLayout is the layout of every registry histogram, in
// milliseconds: LogBounds(1e-3, 1e7), 51 bounds from 1 µs to 10^7 ms
// (≈2.8 h). disk.sleep_ms and flashcard.clean_ms share it.
var HistogramLayout = stats.NewDurationLayout(stats.LogBounds(1e-3, 1e7), units.Millisecond)

// Histogram is a registry's duration distribution: a stats.Histogram over
// HistogramLayout behind a mutex, so parallel emitters can share it. An
// observation takes the lock once; devices observe once per spin-up or
// clean, and only with a registry attached. Registry.Histograms reads it as
// a stats.Histogram. The nil Histogram discards observations.
type Histogram struct {
	mu sync.Mutex
	h  stats.Histogram
}

// Observe records one duration.
func (h *Histogram) Observe(d units.Time) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.AddDuration(HistogramLayout, d)
	h.mu.Unlock()
}

// snapshot copies the histogram state.
func (h *Histogram) snapshot() stats.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.h
	s.Counts = slices.Clone(s.Counts)
	return s
}

// Registry holds named metrics. Registration takes a lock; counter and
// gauge handles are lock-free and a histogram handle locks only itself, so
// callers resolve names once at construction time and operate on handles in
// the hot path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{h: *HistogramLayout.NewHistogram()}
		r.hists[name] = h
	}
	return h
}

// Unregister drops every metric whose name starts with prefix. Handles
// callers already hold keep working; the metrics simply stop being exported.
// This is how the fleet service expires per-job metrics when it retires old
// jobs.
func (r *Registry) Unregister(prefix string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.counters {
		if strings.HasPrefix(name, prefix) {
			delete(r.counters, name)
		}
	}
	for name := range r.gauges {
		if strings.HasPrefix(name, prefix) {
			delete(r.gauges, name)
		}
	}
	for name := range r.hists {
		if strings.HasPrefix(name, prefix) {
			delete(r.hists, name)
		}
	}
}

// Counters returns a snapshot of every counter value, keyed by name.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Gauges returns a snapshot of every gauge value, keyed by name.
func (r *Registry) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// Histograms returns a snapshot of every histogram, keyed by name.
func (r *Registry) Histograms() map[string]stats.Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]stats.Histogram, len(r.hists))
	for name, h := range r.hists {
		out[name] = h.snapshot()
	}
	return out
}

// String renders every metric in sorted order, one per line — the
// deterministic dump behind storagesim's -metrics flag.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	counters := r.Counters()
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-28s %d\n", n, counters[n])
	}
	gauges := r.Gauges()
	names = names[:0]
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-28s %g\n", n, gauges[n])
	}
	hists := r.Histograms()
	names = names[:0]
	for n := range hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := hists[n]
		fmt.Fprintf(&b, "%-28s n=%d p50≤%g p99≤%g\n", n, h.N, h.QuantileBound(0.50), h.QuantileBound(0.99))
	}
	return b.String()
}
