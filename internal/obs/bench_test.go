package obs

import (
	"io"
	"testing"
)

// Microbenchmarks for the per-operation cost of instrumentation. The
// nil-receiver variants are what every simulation pays when no scope is
// attached: a single nil check, no atomics, no allocation. The live
// variants show the worst-case per-event cost with tracing enabled.

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncLive(b *testing.B) {
	c := NewRegistry().Counter("bench.ops")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(12500) // µs
	}
}

func BenchmarkHistogramObserveLive(b *testing.B) {
	h := NewRegistry().Histogram("bench.ms")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(12500) // µs
	}
}

func BenchmarkScopeEmitNil(b *testing.B) {
	var sc *Scope
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sc.Wants(EvDiskSpinUp) {
			sc.Emit(Event{T: int64(i), Kind: EvDiskSpinUp, Dev: "disk"})
		}
	}
}

// BenchmarkScopeEmitUnread is an emit site whose kind the tracer does not
// read: the guard is one bit test and the event is never built.
func BenchmarkScopeEmitUnread(b *testing.B) {
	sc := NewScope(nil, NewCollector(Kinds(EvCardErase)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sc.Wants(EvDiskSpinUp) {
			sc.Emit(Event{T: int64(i), Kind: EvDiskSpinUp, Dev: "disk"})
		}
	}
}

// BenchmarkScopeEmitNDJSON is the storagesim -events path: every event is
// serialized by an NDJSONSink, here into io.Discard.
func BenchmarkScopeEmitNDJSON(b *testing.B) {
	sc := NewScope(nil, NewNDJSONSink(io.Discard))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sc.Wants(EvDiskSpinUp) {
			sc.Emit(Event{T: int64(i), Kind: EvDiskSpinUp, Dev: "disk"})
		}
	}
}
