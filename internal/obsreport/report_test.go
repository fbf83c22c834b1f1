package obsreport

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"mobilestorage/internal/obs"
)

// observe feeds events to r in order and returns r: how a test drives a
// builder, or a Report, over a hand-built stream.
func observe[R Reporter](r R, events []obs.Event) R {
	for _, e := range events {
		r.Observe(e)
	}
	return r
}

// syntheticStream builds a hand-written event stream exercising every
// report: a disk that sleeps twice, flash-card cleaning and wear, stalls,
// and two energy samples.
func syntheticStream() []obs.Event {
	return []obs.Event{
		{T: 1_000_000, Kind: obs.EvDiskSpinDown, Dev: "cu140", Dur: 5_000_000},
		{T: 9_000_000, Kind: obs.EvDiskSpinUp, Dev: "cu140", Dur: 8_000_000},
		{T: 20_000_000, Kind: obs.EvDiskSpinDown, Dev: "cu140", Dur: 5_000_000},
		{T: 22_000_000, Kind: obs.EvDiskSpinUp, Dev: "cu140", Dur: 2_000_000},
		{T: 30_000_000, Kind: obs.EvDiskSpinDown, Dev: "cu140", Dur: 5_000_000}, // still asleep at end

		{T: 2_000_000, Kind: obs.EvCardClean, Dev: "fc", Addr: 3, Size: 10, Dur: 40_000},
		{T: 2_040_000, Kind: obs.EvCardErase, Dev: "fc", Addr: 3, Size: 1},
		{T: 4_000_000, Kind: obs.EvCardClean, Dev: "fc", Addr: 5, Size: 30, Dur: 60_000},
		{T: 4_060_000, Kind: obs.EvCardErase, Dev: "fc", Addr: 5, Size: 1},
		{T: 6_000_000, Kind: obs.EvCardClean, Dev: "fc", Addr: 3, Size: 20, Dur: 50_000},
		{T: 6_050_000, Kind: obs.EvCardErase, Dev: "fc", Addr: 3, Size: 2},
		{T: 6_100_000, Kind: obs.EvCardStall, Dev: "fc", Dur: 123_000},

		{T: 3_000_000, Kind: obs.EvSRAMFlush, Dev: "sram", Size: 8192, Dur: 2_000},
		{T: 5_000_000, Kind: obs.EvSRAMFlush, Dev: "sram", Size: 8192, Dur: 4_000},

		{T: 10_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 1_500_000},
		{T: 10_000_000, Kind: obs.EvEnergySample, Dev: "storage", Size: 1_000_000},
		{T: 20_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 3_000_000},
		{T: 20_000_000, Kind: obs.EvEnergySample, Dev: "storage", Size: 2_250_000},
	}
}

func TestStateTimelines(t *testing.T) {
	tls := observe(NewTimelineBuilder(), syntheticStream()).Finish()
	if len(tls) != 1 {
		t.Fatalf("%d devices, want 1", len(tls))
	}
	tl := tls[0]
	if tl.Dev != "cu140" || tl.SpinUps != 2 || tl.SpinDowns != 3 {
		t.Fatalf("timeline %+v", tl)
	}
	if len(tl.Sleeps) != 2 {
		t.Fatalf("%d sleeps, want 2", len(tl.Sleeps))
	}
	if tl.Sleeps[0] != (Interval{StartUs: 1_000_000, EndUs: 9_000_000}) {
		t.Errorf("first sleep %+v", tl.Sleeps[0])
	}
	if tl.TotalSleepUs != 10_000_000 {
		t.Errorf("total sleep %d, want 10s", tl.TotalSleepUs)
	}
	if tl.OpenSleepUs != 30_000_000 {
		t.Errorf("open sleep start %d, want 30s", tl.OpenSleepUs)
	}
	if tl.SleepHist.N != 2 || tl.SleepHist.Max != 8.0 {
		t.Errorf("sleep hist N=%d max=%g", tl.SleepHist.N, tl.SleepHist.Max)
	}
}

func TestLatencyReport(t *testing.T) {
	kinds := observe(NewLatencyBuilder(), syntheticStream()).Finish()
	// Duration-bearing kinds present: flashcard.clean, flashcard.stall,
	// sram.flush (sorted).
	want := []string{"flashcard.clean", "flashcard.stall", "sram.flush"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds %+v, want %v", kinds, want)
	}
	for i, k := range kinds {
		if k.Kind != want[i] {
			t.Errorf("kind[%d] = %s, want %s", i, k.Kind, want[i])
		}
	}
	clean := kinds[0]
	if clean.N != 3 || clean.MaxMs != 60 {
		t.Errorf("clean latency %+v", clean)
	}
	if clean.MeanMs != 50 {
		t.Errorf("clean mean %g, want exactly 50", clean.MeanMs)
	}
	if clean.P50Ms < 40 || clean.P50Ms > 60 {
		t.Errorf("clean p50 %g outside [40, 60]", clean.P50Ms)
	}
	// Spin events are excluded: their durations are sleep times.
	for _, k := range kinds {
		if k.Kind == obs.EvDiskSpinUp.String() || k.Kind == obs.EvDiskSpinDown.String() {
			t.Errorf("spin event %s in latency report", k.Kind)
		}
	}
}

func TestWearReport(t *testing.T) {
	r := observe(NewWearBuilder(), syntheticStream()).Finish()
	if r.TotalErases != 3 {
		t.Fatalf("total erases %d, want 3", r.TotalErases)
	}
	if len(r.Segments) != 2 {
		t.Fatalf("segments %+v", r.Segments)
	}
	// Final counts: segment 3 erased twice (cumulative max 2), segment 5 once.
	if r.Segments[0] != (SegmentWear{Segment: 3, Erases: 2}) ||
		r.Segments[1] != (SegmentWear{Segment: 5, Erases: 1}) {
		t.Errorf("segments %+v", r.Segments)
	}
	if r.MaxErase != 2 || r.MinErase != 1 || r.MeanErase != 1.5 {
		t.Errorf("stats max=%d min=%d mean=%g", r.MaxErase, r.MinErase, r.MeanErase)
	}
	if got := r.Spread; got != 2.0/1.5 {
		t.Errorf("spread %g", got)
	}

	empty := observe(NewWearBuilder(), nil).Finish()
	if empty.TotalErases != 0 || len(empty.Segments) != 0 {
		t.Errorf("empty wear %+v", empty)
	}
}

func TestEnergyReport(t *testing.T) {
	series := observe(NewEnergyBuilder(), syntheticStream()).Finish()
	if len(series) != 2 {
		t.Fatalf("%d series, want 2", len(series))
	}
	if series[0].Component != "storage" || series[1].Component != "total" {
		t.Fatalf("components %s, %s", series[0].Component, series[1].Component)
	}
	tot := series[1]
	if len(tot.Points) != 2 || tot.Points[1].Joules != 3.0 {
		t.Errorf("total series %+v", tot)
	}
	if tot.Points[0].TUs != 10_000_000 || tot.Points[0].Joules != 1.5 {
		t.Errorf("first point %+v", tot.Points[0])
	}
	if len(observe(NewEnergyBuilder(), nil).Finish()) != 0 {
		t.Error("energy from empty stream")
	}
}

func TestCleaningReport(t *testing.T) {
	r := observe(NewCleaningBuilder(), syntheticStream()).Finish()
	if r.Cleans != 3 || r.CopiedBlocks != 60 || r.Stalls != 1 {
		t.Fatalf("cleaning %+v", r)
	}
	if r.MeanLivePerClean != 20 {
		t.Errorf("mean live/clean %g, want 20", r.MeanLivePerClean)
	}
	if r.TotalCleanUs != 150_000 {
		t.Errorf("total clean %d µs", r.TotalCleanUs)
	}
	if r.LivePerClean.N != 3 || r.LivePerClean.Max != 30 {
		t.Errorf("live hist %+v", r.LivePerClean)
	}
	if r.IndexEngine != "" || r.IndexAmp != 0 {
		t.Errorf("index fields set without an index.writeamp event: %+v", r)
	}
}

// TestCleaningIndexWriteAmp covers the index.writeamp summary event: the
// engine-level write amplification lands in the cleaning report and its
// text/CSV renderings.
func TestCleaningIndexWriteAmp(t *testing.T) {
	events := append(syntheticStream(), obs.Event{
		Kind: obs.EvIndexWriteAmp, Dev: "btree", Addr: 1000, Size: 25000,
	})
	r := observe(NewCleaningBuilder(), events).Finish()
	if r.IndexEngine != "btree" || r.IndexLogicalBytes != 1000 || r.IndexWrittenBytes != 25000 {
		t.Fatalf("index fields %+v", r)
	}
	if r.IndexAmp != 25.0 {
		t.Fatalf("index amp %g, want 25", r.IndexAmp)
	}

	var buf bytes.Buffer
	if err := WriteCleaning(&buf, r, Text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "index btree: 25.00× write amplification") {
		t.Errorf("text rendering missing index line:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteCleaning(&buf, r, CSV); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][5] != "index_engine" || rows[0][6] != "index_amp" {
		t.Errorf("csv header missing index columns: %v", rows[0])
	}
	if rows[1][5] != "btree" || rows[1][6] != "25" {
		t.Errorf("csv row %v", rows[1])
	}

	// A run with index stats but a cleaner-free device (disk) still renders
	// the index line instead of the "no events" placeholder.
	only := observe(NewCleaningBuilder(), []obs.Event{{Kind: obs.EvIndexWriteAmp, Dev: "lsm", Addr: 100, Size: 215}}).Finish()
	buf.Reset()
	if err := WriteCleaning(&buf, only, Text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "index lsm: 2.15× write amplification") {
		t.Errorf("index-only text rendering:\n%s", buf.String())
	}

	// The -vs delta table gains an index_amp row when either run has one.
	deltas := DiffCleaning(r, only)
	last := deltas[len(deltas)-1]
	if last.Name != "index_amp" || last.A != 25.0 || last.B != 2.15 {
		t.Errorf("diff row %+v", last)
	}
}

// Renderers: every format produces parseable output and text output is
// deterministic across calls.
func TestRenderersAllFormats(t *testing.T) {
	events := syntheticStream()
	for _, kind := range FigureKinds() {
		for _, f := range []Format{Text, CSV, JSON} {
			renderReport(t, kind, events, f)
		}
	}

	// JSON output must round-trip through the std decoder.
	var buf bytes.Buffer
	if err := WriteWear(&buf, observe(NewWearBuilder(), events).Finish(), JSON); err != nil {
		t.Fatal(err)
	}
	var decoded WearReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("wear JSON does not parse: %v", err)
	}
	if decoded.TotalErases != 3 {
		t.Errorf("decoded wear %+v", decoded)
	}

	// CSV output must parse with the std reader.
	buf.Reset()
	if err := WriteEnergy(&buf, observe(NewEnergyBuilder(), events).Finish(), CSV); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("energy CSV does not parse: %v", err)
	}
	if len(rows) != 5 { // header + 4 points
		t.Errorf("%d CSV rows, want 5", len(rows))
	}

	// Determinism: identical inputs render byte-identically.
	render := func() string {
		var b strings.Builder
		for _, kind := range FigureKinds() {
			b.WriteString(renderReport(t, kind, events, Text))
		}
		return b.String()
	}
	if render() != render() {
		t.Error("text rendering not deterministic")
	}
}

func TestParseFormat(t *testing.T) {
	for _, ok := range []string{"text", "csv", "json"} {
		if _, err := ParseFormat(ok); err != nil {
			t.Errorf("ParseFormat(%q): %v", ok, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("xml accepted")
	}
}

func TestWriteTimelineCSV(t *testing.T) {
	tl := &obs.Timeline{
		IntervalUs: 1_000_000,
		Points: []obs.SamplePoint{
			{TUs: 1_000_000, Counters: map[string]int64{"cache.hits": 2}, Gauges: map[string]float64{"energy.total_j": 0.5}},
			{TUs: 2_000_000, Counters: map[string]int64{"cache.hits": 5, "cache.misses": 1}, Gauges: map[string]float64{"energy.total_j": 1.25}},
		},
	}
	var buf bytes.Buffer
	if err := WriteTimelineCSV(&buf, tl); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := []string{"t_s", "energy.total_j", "cache.hits", "cache.misses"}
	if strings.Join(rows[0], ",") != strings.Join(wantHeader, ",") {
		t.Errorf("header %v, want %v", rows[0], wantHeader)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Missing counter on the first point renders as zero.
	if rows[1][3] != "0" {
		t.Errorf("missing counter cell %q, want 0", rows[1][3])
	}

	if err := WriteTimelineCSV(&buf, nil); err == nil {
		t.Error("nil timeline accepted")
	}
}
