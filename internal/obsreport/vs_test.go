package obsreport

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mobilestorage/internal/obs"
)

// diffAll aggregates two event slices independently through every report
// kind and returns the delta tables, keyed by report name.
func diffAll(a, b []obs.Event) map[string][]DeltaRow {
	out := make(map[string][]DeltaRow)
	for _, kind := range FigureKinds() {
		ra, _ := NewReport(kind)
		rb, _ := NewReport(kind)
		out[kind] = observe(ra, a).Diff(observe(rb, b))
	}
	return out
}

// The -vs self-diff property: comparing a run against itself yields
// all-zero deltas in every report.
func TestSelfDiffIsAllZero(t *testing.T) {
	events := figureEvents()
	for report, rows := range diffAll(events, events) {
		if len(rows) == 0 {
			t.Errorf("%s: self-diff produced no rows for a populated stream", report)
		}
		for _, r := range rows {
			if r.Delta != 0 {
				t.Errorf("%s: self-diff row %s has delta %g (A=%g B=%g)", report, r.Name, r.Delta, r.A, r.B)
			}
			if r.A != r.B {
				t.Errorf("%s: self-diff row %s: A=%g != B=%g", report, r.Name, r.A, r.B)
			}
		}
	}
}

// Quantities present in only one run must still appear, reading zero on
// the other side.
func TestDiffUnionAcrossRuns(t *testing.T) {
	a := []obs.Event{
		{T: 1_000_000, Kind: obs.EvDiskSpinDown, Dev: "cu140"},
		{T: 2_000_000, Kind: obs.EvDiskSpinUp, Dev: "cu140", Dur: 1_000_000},
		{T: 3_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 9_000_000},
	}
	b := []obs.Event{
		{T: 1_000_000, Kind: obs.EvDiskSpinDown, Dev: "kh"},
		{T: 5_000_000, Kind: obs.EvDiskSpinUp, Dev: "kh", Dur: 4_000_000},
		{T: 3_000_000, Kind: obs.EvEnergySample, Dev: "storage", Size: 4_000_000},
	}
	tl := DiffTimelines(observe(NewTimelineBuilder(), a).Finish(), observe(NewTimelineBuilder(), b).Finish())
	byName := map[string]DeltaRow{}
	for _, r := range tl {
		byName[r.Name] = r
	}
	if r := byName["cu140.spin_ups"]; r.A != 1 || r.B != 0 || r.Delta != -1 {
		t.Errorf("cu140.spin_ups: %+v", r)
	}
	if r := byName["kh.spin_ups"]; r.A != 0 || r.B != 1 || r.Delta != 1 {
		t.Errorf("kh.spin_ups: %+v", r)
	}
	en := DiffEnergy(observe(NewEnergyBuilder(), a).Finish(), observe(NewEnergyBuilder(), b).Finish())
	byName = map[string]DeltaRow{}
	for _, r := range en {
		byName[r.Name] = r
	}
	if r := byName["total.final_j"]; r.A != 9 || r.B != 0 {
		t.Errorf("total.final_j: %+v", r)
	}
	if r := byName["storage.final_j"]; r.A != 0 || r.B != 4 || r.Delta != 4 {
		t.Errorf("storage.final_j: %+v", r)
	}
}

func TestWriteDeltaFormats(t *testing.T) {
	rows := []DeltaRow{
		{Name: "x.n", A: 2, B: 5, Delta: 3},
		{Name: "y.mean_ms", A: 1.5, B: 1.25, Delta: -0.25},
	}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, rows, Text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "run A") || !strings.Contains(buf.String(), "x.n") {
		t.Errorf("text delta table: %q", buf.String())
	}

	buf.Reset()
	if err := WriteDelta(&buf, rows, CSV); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "name,a,b,delta\n") || !strings.Contains(buf.String(), "x.n,2,5,3\n") {
		t.Errorf("csv delta table: %q", buf.String())
	}

	buf.Reset()
	if err := WriteDelta(&buf, rows, JSON); err != nil {
		t.Fatal(err)
	}
	var decoded []DeltaRow
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || decoded[1].Delta != -0.25 {
		t.Errorf("json delta table: %+v", decoded)
	}

	if err := WriteDelta(&buf, rows, SVG); err == nil {
		t.Error("WriteDelta accepted svg format")
	}

	buf.Reset()
	if err := WriteDelta(&buf, nil, Text); err != nil || !strings.Contains(buf.String(), "nothing to compare") {
		t.Errorf("empty text delta: %v %q", err, buf.String())
	}
}

func TestMergeCharts(t *testing.T) {
	a := EnergyChart(observe(NewEnergyBuilder(), figureEvents()).Finish())
	b := EnergyChart(nil)
	m := MergeCharts(a, b, "base", "candidate")
	if m.Title != "Cumulative energy — base vs candidate" {
		t.Errorf("merged title: %q", m.Title)
	}
	if len(m.Series) != len(a.Series) {
		t.Fatalf("merged series count %d, want %d", len(m.Series), len(a.Series))
	}
	for _, s := range m.Series {
		if !strings.HasSuffix(s.Name, " [base]") {
			t.Errorf("series %q missing run label", s.Name)
		}
	}
	out := m.SVG()
	checkWellFormed(t, out)
	if !strings.Contains(out, "total [base]") {
		t.Error("merged chart legend missing labelled series")
	}
}

// FuzzVsAggregation drives the two-stream aggregation with arbitrary
// NDJSON: it must never panic, every delta must be finite, and a run
// diffed against itself must always produce all-zero deltas. The merged
// SVG rendering must stay well-formed even with hostile device names.
// Seed corpus lives under testdata/fuzz/FuzzVsAggregation.
func FuzzVsAggregation(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"t_us":1000000,"kind":"disk.spindown","dev":"cu140"}` + "\n" +
			`{"t_us":4000000,"kind":"disk.spinup","dev":"cu140","dur_us":3000000}` + "\n" +
			`{"t_us":5000000,"kind":"flashcard.clean","addr":3,"size":40,"dur_us":120000}` + "\n" +
			`{"t_us":5000001,"kind":"flashcard.erase","addr":3,"size":1}` + "\n" +
			`{"t_us":6000000,"kind":"sample.energy","dev":"total","size":1500000}` + "\n"),
		[]byte(`{"t_us":1,"kind":"sram.flush","dur_us":1500}` + "\n" +
			`{"t_us":2,"kind":"sample.energy","dev":"storage","size":700000}` + "\n" +
			`{"t_us":3,"kind":"sample.energy","dev":"storage","size":900000}` + "\n"),
		[]byte(`{"t_us":9223372036854775807,"kind":"disk.spinup","dev":"d","dur_us":9223372036854775807}` + "\n" +
			`{"t_us":1,"kind":"flashcard.erase","addr":-5,"size":-9}` + "\n"),
		[]byte("not json\n{\"kind\":\"flashcard.clean\",\"size\":7}\n"),
		[]byte(""),
		[]byte(`{"kind":"sample.energy","dev":"Inf<&>","size":5}` + "\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _, err := readLenient(data)
		if err != nil {
			return // scanner-level failure: nothing aggregated
		}

		// Self-diff: all-zero deltas for every report kind.
		for report, rows := range diffAll(events, events) {
			for _, r := range rows {
				if r.Delta != 0 {
					t.Fatalf("%s: self-diff row %s has delta %g", report, r.Name, r.Delta)
				}
			}
		}

		// Cross-diff of two different prefixes: no panic, finite deltas.
		half := len(events) / 2
		for report, rows := range diffAll(events[:half], events) {
			for _, r := range rows {
				for _, v := range []float64{r.A, r.B, r.Delta} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s: non-finite value in row %s: A=%g B=%g Δ=%g",
							report, r.Name, r.A, r.B, r.Delta)
					}
				}
			}
		}

		// The merged side-by-side chart renders well-formed XML whatever the
		// component names contain.
		m := MergeCharts(EnergyChart(observe(NewEnergyBuilder(), events[:half]).Finish()), EnergyChart(observe(NewEnergyBuilder(), events).Finish()), "A", "B")
		checkWellFormed(t, m.SVG())
	})
}
