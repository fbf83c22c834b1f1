package obsreport

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"mobilestorage/internal/obs"
)

// arrayStream is a hand-written degraded-mode stream: member m0 of a
// mirror dies on schedule and is rebuilt, member m1 later dies of erase
// wear-out, latent faults surface on both members, and one cleaning job is
// carried across a power failure.
func arrayStream() []obs.Event {
	return []obs.Event{
		{T: 1_000_000, Kind: obs.EvFaultLatent, Dev: "fc#0", Addr: 40, Size: 2, Dur: 600},
		{T: 2_000_000, Kind: obs.EvDeviceDie, Dev: "fc#0", Addr: 0, Size: 0},
		{T: 2_000_000, Kind: obs.EvArrayDegraded, Dev: "mirror", Addr: 0, Size: 1},
		{T: 2_050_000, Kind: obs.EvArrayRebuild, Dev: "mirror", Addr: 0, Size: 128, Dur: 50_000},

		{T: 3_000_000, Kind: obs.EvFaultLatent, Dev: "fc#1", Addr: 7, Size: 1, Dur: 300},
		{T: 4_000_000, Kind: obs.EvDeviceDie, Dev: "fc#1", Addr: 1, Size: 1},

		{T: 5_000_000, Kind: obs.EvPowerFail},
		{T: 5_000_000, Kind: obs.EvCleaningBacklog, Dev: "fc#1", Addr: 3, Size: 14, Dur: 9_000},
	}
}

func TestArrayReport(t *testing.T) {
	r := observe(NewArrayBuilder(), arrayStream()).Finish()
	if r.Deaths != 2 || r.EraseDeaths != 1 || r.Degradations != 1 || r.Rebuilds != 1 {
		t.Fatalf("totals %+v", r)
	}
	if r.RebuildBlocks != 128 || r.RebuildUs != 50_000 {
		t.Fatalf("rebuild totals %+v", r)
	}
	if r.LatentSurfaced != 3 || r.ScrubUs != 900 {
		t.Fatalf("latent totals %+v", r)
	}
	if r.Backlogs != 1 || r.BacklogBlocks != 14 || r.DrainUs != 9_000 {
		t.Fatalf("backlog totals %+v", r)
	}
	if len(r.DeathUs) != 2 || r.DeathUs[0] != 2_000_000 || r.DeathUs[1] != 4_000_000 {
		t.Fatalf("death times %v", r.DeathUs)
	}
	if len(r.RebuildDoneUs) != 1 || r.RebuildDoneUs[0] != 2_050_000 {
		t.Fatalf("rebuild times %v", r.RebuildDoneUs)
	}
	if len(r.Devices) != 3 {
		t.Fatalf("%d devices, want 3 (fc#0, fc#1, mirror)", len(r.Devices))
	}
	m0, m1, mir := r.Devices[0], r.Devices[1], r.Devices[2]
	if m0.Dev != "fc#0" || m0.Deaths != 1 || m0.EraseDeaths != 0 || m0.LatentSurfaced != 2 {
		t.Errorf("fc#0 %+v", m0)
	}
	if len(m0.LatentTimesUs) != 1 || m0.LatentTimesUs[0] != 1_000_000 {
		t.Errorf("fc#0 latent times %v", m0.LatentTimesUs)
	}
	if m1.Dev != "fc#1" || m1.Deaths != 1 || m1.EraseDeaths != 1 || m1.Backlogs != 1 || m1.DrainUs != 9_000 {
		t.Errorf("fc#1 %+v", m1)
	}
	if mir.Dev != "mirror" || mir.Degradations != 1 || mir.Rebuilds != 1 || mir.RebuildBlocks != 128 {
		t.Errorf("mirror %+v", mir)
	}
}

func TestArrayReportEmptyStream(t *testing.T) {
	r := observe(NewArrayBuilder(), syntheticStream()).Finish()
	if r.Deaths != 0 || len(r.Devices) != 0 || r.Backlogs != 0 {
		t.Fatalf("array-free stream produced %+v", r)
	}
	var buf bytes.Buffer
	if err := WriteArray(&buf, r, Text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no array or recovery events") {
		t.Errorf("empty-report text = %q", buf.String())
	}
}

func TestWriteArrayFormats(t *testing.T) {
	r := observe(NewArrayBuilder(), arrayStream()).Finish()

	var txt bytes.Buffer
	if err := WriteArray(&txt, r, Text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 device deaths", "1 from erase wear-out", "1 mirror degradations",
		"3 latent faults surfaced", "1 cleaning jobs carried", "fc#0", "fc#1", "mirror"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, txt.String())
		}
	}

	var csvBuf bytes.Buffer
	if err := WriteArray(&csvBuf, r, CSV); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 devices
		t.Fatalf("%d csv rows, want 4", len(rows))
	}
	if rows[1][0] != "fc#0" || rows[1][1] != "1" || rows[1][7] != "2" {
		t.Errorf("csv fc#0 row %v", rows[1])
	}

	var jsonBuf bytes.Buffer
	if err := WriteArray(&jsonBuf, r, JSON); err != nil {
		t.Fatal(err)
	}
	var back ArrayReport
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Deaths != r.Deaths || len(back.Devices) != len(r.Devices) {
		t.Errorf("json round-trip %+v", back)
	}

	var svg bytes.Buffer
	if err := WriteArray(&svg, r, SVG); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") || !strings.Contains(svg.String(), "device.die 1") {
		t.Error("svg output missing chart or death marker")
	}
}

func TestArrayChartSeries(t *testing.T) {
	c := ArrayChart(observe(NewArrayBuilder(), arrayStream()).Finish())
	// Two devices with latent series + two death markers + one rebuild marker.
	if len(c.Series) != 5 {
		t.Fatalf("%d series, want 5", len(c.Series))
	}
	m0 := c.Series[0]
	if m0.Name != "fc#0" || !m0.Step {
		t.Errorf("first series %+v", m0)
	}
	last := m0.Points[len(m0.Points)-1]
	if last.Y != 1 {
		t.Errorf("fc#0 cumulative end %v, want 1", last)
	}
	marker := c.Series[2]
	if marker.Name != "device.die 1" || marker.Points[0].X != 2.0 || marker.Points[1].X != 2.0 {
		t.Errorf("death marker %v, want x=2s", marker.Points)
	}
}

func TestDiffArraySelfIsZero(t *testing.T) {
	r := observe(NewArrayBuilder(), arrayStream()).Finish()
	for _, d := range DiffArray(r, r) {
		if d.Delta != 0 {
			t.Errorf("self-diff %s = %g, want 0", d.Name, d.Delta)
		}
	}
	other := observe(NewArrayBuilder(), arrayStream()[:4]).Finish() // first death + rebuild only
	rows := DiffArray(other, r)
	if rows[0].Delta != 1 { // deaths: 1 → 2
		t.Errorf("deaths delta %+v", rows[0])
	}
}
