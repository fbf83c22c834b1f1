package obsreport

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mobilestorage/internal/obs"
)

// writeStream splits data into n files in a temp dir, cutting only at line
// boundaries, and returns their paths.
func writeStream(t *testing.T, data []byte, n int) []string {
	t.Helper()
	dir := t.TempDir()
	lines := bytes.SplitAfter(data, []byte("\n"))
	per := (len(lines) + n - 1) / n
	var paths []string
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(lines) {
			lo = len(lines)
		}
		if hi > len(lines) {
			hi = len(lines)
		}
		path := filepath.Join(dir, fmt.Sprintf("part%d.ndjson", i))
		if err := os.WriteFile(path, bytes.Join(lines[lo:hi], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// Every report, rendered in every format, comes out the same whether its
// builders are fed a decoded event slice or streamed through StreamFiles
// from one file or from four shards.
func TestStreamingMatchesSliceRenders(t *testing.T) {
	data := benchStream(5_000)
	events, _, err := readAllMode(data, false)
	if err != nil {
		t.Fatal(err)
	}

	render := func(reports []Report, f Format) string {
		var b bytes.Buffer
		for _, r := range reports {
			if err := r.Write(&b, f); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	newReports := func() []Report {
		var reports []Report
		for _, kind := range FigureKinds() {
			r, err := NewReport(kind)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, r)
		}
		return reports
	}
	sliceRender := func(f Format) string {
		reports := newReports()
		for _, r := range reports {
			observe(r, events)
		}
		return render(reports, f)
	}
	streamRender := func(paths []string, f Format) string {
		reports := newReports()
		reporters := make([]Reporter, len(reports))
		for i, r := range reports {
			reporters[i] = r
		}
		stats, err := StreamFiles(paths, StreamOptions{}, reporters...)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Events != int64(len(events)) {
			t.Fatalf("streamed %d events, want %d", stats.Events, len(events))
		}
		return render(reports, f)
	}

	one := writeStream(t, data, 1)
	four := writeStream(t, data, 4)
	for _, f := range []Format{Text, CSV, JSON} {
		want := sliceRender(f)
		if got := streamRender(one, f); got != want {
			t.Errorf("%s: single-file streaming render differs from slice render", f)
		}
		if got := streamRender(four, f); got != want {
			t.Errorf("%s: sharded streaming render differs from slice render", f)
		}
	}
}

// Sharded delivery order is file order then line order, regardless of
// which shard finishes decoding first.
func TestStreamFilesDeterministicOrder(t *testing.T) {
	data := benchStream(3_000)
	want, _, err := readAllMode(data, false)
	if err != nil {
		t.Fatal(err)
	}
	paths := writeStream(t, data, 5)
	var got []obs.Event
	collect := reporterFunc(func(e obs.Event) { got = append(got, e) })
	if _, err := StreamFiles(paths, StreamOptions{}, collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// reporterFunc adapts a closure to the Reporter interface.
type reporterFunc func(obs.Event)

func (f reporterFunc) Observe(e obs.Event) { f(e) }

func TestStreamFilesErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ndjson")
	bad := filepath.Join(dir, "bad.ndjson")
	os.WriteFile(good, []byte(`{"t_us":1,"kind":"cache.hit","size":1}`+"\n"), 0o644)
	os.WriteFile(bad, []byte("{\"t_us\":1,\"kind\":\"cache.hit\"}\ngarbage\n"), 0o644)

	// Strict mode: the error names the offending file.
	var n int64
	count := reporterFunc(func(obs.Event) { n++ })
	_, err := StreamFiles([]string{good, bad}, StreamOptions{}, count)
	if err == nil || !strings.Contains(err.Error(), "bad.ndjson") {
		t.Errorf("error %v, want mention of bad.ndjson", err)
	}

	// Lenient mode: skipped lines are counted across shards.
	stats, err := StreamFiles([]string{good, bad, good}, StreamOptions{Lenient: true}, count)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 3 || stats.Skipped != 1 {
		t.Errorf("stats %+v, want 3 events / 1 skipped", stats)
	}

	if _, err := StreamFiles([]string{filepath.Join(dir, "missing")}, StreamOptions{}, count); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := StreamFiles(nil, StreamOptions{}, count); err == nil {
		t.Error("empty path list accepted")
	}
	if _, err := StreamFiles([]string{"-"}, StreamOptions{}, count); err == nil {
		t.Error("\"-\" accepted without a stdin reader")
	}
}

// Error paths must propagate without deadlocking the fan-in, even with
// healthy shards queued behind (and blocked on) the failing one, and must
// leave no decode worker behind.
func TestStreamFilesErrorPropagation(t *testing.T) {
	dir := t.TempDir()
	big := benchStream(20_000) // several batches per shard, so workers block on the fan-in
	good := filepath.Join(dir, "good.ndjson")
	if err := os.WriteFile(good, big, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ndjson")
	if err := os.WriteFile(bad, append(append([]byte{}, big[:len(big)/2]...), "garbage\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	oversized := filepath.Join(dir, "oversized.ndjson")
	if err := os.WriteFile(oversized, append(bytes.Repeat([]byte("x"), maxLineBytes+1), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		paths   []string
		lenient bool
		wantIn  string // substring the error must carry
	}{
		{"unreadable first of many", []string{filepath.Join(dir, "missing"), good, good, good}, false, "missing"},
		{"unreadable is a directory", []string{dir, good, good}, false, dir},
		{"decode error mid-file", []string{bad, good, good, good}, false, "bad.ndjson"},
		{"decode error in last shard", []string{good, good, bad}, false, "bad.ndjson"},
		{"oversized line aborts even lenient", []string{oversized, good}, true, "oversized.ndjson"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var n int64
			count := reporterFunc(func(obs.Event) { n++ })
			_, err := StreamFiles(tc.paths, StreamOptions{Lenient: tc.lenient}, count)
			if err == nil || !strings.Contains(err.Error(), tc.wantIn) {
				t.Fatalf("error %v, want mention of %q", err, tc.wantIn)
			}
			// StreamFiles returns after every decode has; give their
			// goroutines a moment to exit before declaring a leak.
			for i := 0; i < 100 && runtime.NumGoroutine() > before+2; i++ {
				time.Sleep(time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > before+2 {
				t.Errorf("goroutines grew from %d to %d after an aborted stream", before, g)
			}
		})
	}
}

func TestStreamFilesStdin(t *testing.T) {
	data := benchStream(100)
	var n int64
	count := reporterFunc(func(obs.Event) { n++ })
	stats, err := StreamFiles([]string{"-"}, StreamOptions{Stdin: bytes.NewReader(data)}, count)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 100 || n != 100 {
		t.Errorf("stdin streamed %d events (observed %d), want 100", stats.Events, n)
	}
}

// eventGen synthesizes an endless NDJSON stream on the fly: a reader that
// never materializes the whole stream, so the constant-memory test can push
// hundreds of megabytes through the pipeline from a few KB of state.
type eventGen struct {
	remaining int64 // events left to emit
	seq       int64
	buf       bytes.Buffer
	bytesOut  int64
}

func (g *eventGen) Read(p []byte) (int, error) {
	for g.buf.Len() < len(p) && g.remaining > 0 {
		sink := obs.NewNDJSONSink(&g.buf)
		for i := 0; i < 512 && g.remaining > 0; i++ {
			g.seq++
			g.remaining--
			switch g.seq % 4 {
			case 0:
				sink.Emit(obs.Event{T: g.seq * 1000, Kind: obs.EvCardClean, Dev: "fc",
					Addr: g.seq % 64, Size: g.seq % 90, Dur: 40_000})
			case 1:
				sink.Emit(obs.Event{T: g.seq * 1000, Kind: obs.EvCardErase, Dev: "fc",
					Addr: g.seq % 64, Size: g.seq/64 + 1})
			case 2:
				sink.Emit(obs.Event{T: g.seq * 1000, Kind: obs.EvSRAMFlush, Dev: "sram",
					Size: 8192, Dur: 1000 + g.seq%5000})
			default:
				sink.Emit(obs.Event{T: g.seq * 1000, Kind: obs.EvDiskSpinUp, Dev: "cu140",
					Dur: g.seq % 900_000})
			}
		}
		sink.Flush()
	}
	if g.buf.Len() == 0 {
		return 0, io.EOF
	}
	n, err := g.buf.Read(p)
	g.bytesOut += int64(n)
	return n, err
}

// The constant-memory guarantee: a multi-hundred-MB stream flows through
// the full pipeline (scanner → builders) while the live heap stays within
// a small fixed bound, because no stage retains per-event state.
func TestStreamConstantMemory(t *testing.T) {
	events := int64(3_000_000) // ≈ 230 MB of NDJSON
	if testing.Short() {
		events = 400_000
	}
	gen := &eventGen{remaining: events}

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	const heapBudget = 64 << 20 // far below the stream size, far above builder state
	var peak uint64
	var seen int64
	tb, lb, wb, cb := NewTimelineBuilder(), NewLatencyBuilder(), NewWearBuilder(), NewCleaningBuilder()
	watch := reporterFunc(func(obs.Event) {
		seen++
		if seen%500_000 == 0 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > peak {
				peak = m.HeapAlloc
			}
		}
	})
	stats, err := StreamFiles([]string{"-"}, StreamOptions{Stdin: gen}, tb, lb, wb, cb, watch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != events {
		t.Fatalf("streamed %d events, want %d", stats.Events, events)
	}
	if !testing.Short() && gen.bytesOut < 200<<20 {
		t.Fatalf("stream was only %d MB, want a multi-hundred-MB input", gen.bytesOut>>20)
	}
	if peak > base.HeapAlloc+heapBudget {
		t.Errorf("heap grew to %d MB while streaming %d MB (budget %d MB above the %d MB baseline)",
			peak>>20, gen.bytesOut>>20, heapBudget>>20, base.HeapAlloc>>20)
	}
	// The reports themselves must be sane, proving events flowed through.
	if wb.Finish().TotalErases != (events+2)/4 {
		t.Errorf("wear erases %d, want %d", wb.Finish().TotalErases, (events+2)/4)
	}
}
