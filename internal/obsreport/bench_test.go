package obsreport

import (
	"bytes"
	"io"
	"testing"

	"mobilestorage/internal/obs"
)

// benchStream synthesizes an n-event NDJSON stream mixing the kinds the
// reports consume.
func benchStream(n int) []byte {
	var buf bytes.Buffer
	sink := obs.NewNDJSONSink(&buf)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			sink.Emit(obs.Event{T: int64(i) * 1000, Kind: obs.EvCacheHit, Size: 4096})
		case 1:
			sink.Emit(obs.Event{T: int64(i) * 1000, Kind: obs.EvCardClean, Dev: "fc",
				Addr: int64(i % 64), Size: int64(i % 90), Dur: 40_000})
		case 2:
			sink.Emit(obs.Event{T: int64(i) * 1000, Kind: obs.EvCardErase, Dev: "fc",
				Addr: int64(i % 64), Size: int64(i/64 + 1)})
		case 3:
			sink.Emit(obs.Event{T: int64(i) * 1000, Kind: obs.EvSRAMFlush, Dev: "sram",
				Size: 8192, Dur: int64(1000 + i%5000)})
		default:
			sink.Emit(obs.Event{T: int64(i) * 1000, Kind: obs.EvEnergySample, Dev: "total",
				Size: int64(i) * 100})
		}
	}
	sink.Flush()
	return buf.Bytes()
}

func BenchmarkDecodeNDJSON(b *testing.B) {
	data := benchStream(10_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events, _, err := readAllMode(data, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(events) != 10_000 {
			b.Fatalf("%d events", len(events))
		}
	}
}

// BenchmarkDecodeNDJSONFallback forces every line through the encoding/json
// path the fast scanner bails to — the cost of a stream the scanner cannot
// handle, and the denominator of the fast path's speedup.
func BenchmarkDecodeNDJSONFallback(b *testing.B) {
	data := benchStream(10_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(bytes.NewReader(data))
		d.noFast = true
		n := 0
		for {
			_, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != 10_000 {
			b.Fatalf("%d events", n)
		}
	}
}

// BenchmarkStreamWear measures the full constant-memory pipeline: scanner →
// batches → wear builder, with no event slice ever materialized.
func BenchmarkStreamWear(b *testing.B) {
	data := benchStream(10_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb := NewWearBuilder()
		stats, err := StreamFiles([]string{"-"},
			StreamOptions{Stdin: bytes.NewReader(data)}, wb)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Events != 10_000 {
			b.Fatalf("%d events", stats.Events)
		}
	}
}

func BenchmarkReports(b *testing.B) {
	events, _, err := readAllMode(benchStream(10_000), false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := NewTimelineBuilder()
		feed(tb, events)
		_ = tb.Finish()
		lb := NewLatencyBuilder()
		feed(lb, events)
		_ = lb.Finish()
		wb := NewWearBuilder()
		feed(wb, events)
		_ = wb.Finish()
		eb := NewEnergyBuilder()
		feed(eb, events)
		_ = eb.Finish()
		cb := NewCleaningBuilder()
		feed(cb, events)
		_ = cb.Finish()
	}
}

// feed replays events through r. Unlike the generic observe, a call to it
// inlines and devirtualizes, so the builders BenchmarkReports measures
// stay off the heap, as a caller's would.
func feed(r Reporter, events []obs.Event) {
	for _, e := range events {
		r.Observe(e)
	}
}

func BenchmarkQuantile(b *testing.B) {
	h := latencyLayout.NewHistogram()
	for i := 1; i <= 100_000; i++ {
		h.Add(float64(i % 997))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.50)
		_ = h.Quantile(0.99)
	}
}

func BenchmarkRenderText(b *testing.B) {
	events, _, err := readAllMode(benchStream(10_000), false)
	if err != nil {
		b.Fatal(err)
	}
	lat := observe(NewLatencyBuilder(), events).Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteLatency(io.Discard, lat, Text); err != nil {
			b.Fatal(err)
		}
	}
}
