package obsreport

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"mobilestorage/internal/obs"
)

// faultStream is a hand-written fault-event stream: two devices with
// injected faults and retries, one remap, one spare-pool death, a power
// failure, and an SRAM replay.
func faultStream() []obs.Event {
	return []obs.Event{
		{T: 1_000_000, Kind: obs.EvFaultInjected, Dev: "disk", Addr: 0, Size: 1},
		{T: 1_000_000, Kind: obs.EvRetryAttempt, Dev: "disk", Addr: 0, Size: 2, Dur: 500},
		{T: 2_000_000, Kind: obs.EvFaultInjected, Dev: "disk", Addr: 1, Size: 1},
		{T: 2_000_000, Kind: obs.EvRetryAttempt, Dev: "disk", Addr: 1, Size: 2, Dur: 500},
		{T: 2_000_500, Kind: obs.EvFaultInjected, Dev: "disk", Addr: 1, Size: 2},
		{T: 2_000_500, Kind: obs.EvRetryAttempt, Dev: "disk", Addr: 1, Size: 3, Dur: 1_000},

		{T: 3_000_000, Kind: obs.EvFaultInjected, Dev: "fc", Addr: 2, Size: 1},
		{T: 3_000_000, Kind: obs.EvRetryAttempt, Dev: "fc", Addr: 2, Size: 2, Dur: 2_000},
		{T: 4_000_000, Kind: obs.EvRemap, Dev: "fc", Addr: 7, Size: 1},
		{T: 5_000_000, Kind: obs.EvRemap, Dev: "fc", Addr: 9, Size: -1},
		{T: 5_500_000, Kind: obs.EvReclaim, Dev: "fc", Addr: 9},

		{T: 6_000_000, Kind: obs.EvPowerFail},
		{T: 6_000_000, Kind: obs.EvRecoveryReplayed, Dev: "sram", Size: 5, Dur: 40_000},
	}
}

func TestFaultsReport(t *testing.T) {
	r := observe(NewFaultsBuilder(), faultStream()).Finish()
	if r.Injected != 4 || r.Retries != 4 || r.BackoffUs != 4_000 {
		t.Fatalf("totals %+v", r)
	}
	if r.Remaps != 1 || r.SparesExhausted != 1 || r.Reclaims != 1 || r.ReplayedBlocks != 5 {
		t.Fatalf("remap/reclaim/replay totals %+v", r)
	}
	if len(r.PowerFailUs) != 1 || r.PowerFailUs[0] != 6_000_000 {
		t.Fatalf("power failures %v", r.PowerFailUs)
	}
	if len(r.Devices) != 3 {
		t.Fatalf("%d devices, want 3 (disk, fc, sram)", len(r.Devices))
	}
	disk, fc, sram := r.Devices[0], r.Devices[1], r.Devices[2]
	if disk.Dev != "disk" || disk.ReadFaults != 1 || disk.WriteFaults != 2 || disk.EraseFaults != 0 {
		t.Errorf("disk %+v", disk)
	}
	if disk.Retries != 3 || disk.BackoffUs != 2_000 {
		t.Errorf("disk retries %+v", disk)
	}
	if len(disk.InjectionTimesUs) != 3 || disk.InjectionTimesUs[2] != 2_000_500 {
		t.Errorf("disk injection times %v", disk.InjectionTimesUs)
	}
	if fc.Dev != "fc" || fc.EraseFaults != 1 || fc.Remaps != 1 || fc.SparesExhausted != 1 || fc.Reclaims != 1 {
		t.Errorf("fc %+v", fc)
	}
	if sram.Dev != "sram" || sram.ReplayedBlocks != 5 {
		t.Errorf("sram %+v", sram)
	}
	if r.BackoffHist.N != 4 || r.BackoffHist.Max != 2.0 {
		t.Errorf("backoff hist N=%d max=%g", r.BackoffHist.N, r.BackoffHist.Max)
	}
}

func TestFaultsReportEmptyStream(t *testing.T) {
	r := observe(NewFaultsBuilder(), syntheticStream()).Finish()
	if r.Injected != 0 || len(r.Devices) != 0 || len(r.PowerFailUs) != 0 {
		t.Fatalf("fault-free stream produced %+v", r)
	}
	var buf bytes.Buffer
	if err := WriteFaults(&buf, r, Text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no fault events") {
		t.Errorf("empty-report text = %q", buf.String())
	}
}

func TestWriteFaultsFormats(t *testing.T) {
	r := observe(NewFaultsBuilder(), faultStream()).Finish()

	var txt bytes.Buffer
	if err := WriteFaults(&txt, r, Text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"4 faults injected", "1 erase units remapped", "1 retired units reclaimed", "1 power failures", "disk", "fc", "sram"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, txt.String())
		}
	}

	var csvBuf bytes.Buffer
	if err := WriteFaults(&csvBuf, r, CSV); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 devices
		t.Fatalf("%d csv rows, want 4", len(rows))
	}
	if rows[1][0] != "disk" || rows[1][1] != "1" || rows[1][2] != "2" {
		t.Errorf("csv disk row %v", rows[1])
	}

	var jsonBuf bytes.Buffer
	if err := WriteFaults(&jsonBuf, r, JSON); err != nil {
		t.Fatal(err)
	}
	var back FaultsReport
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Injected != r.Injected || len(back.Devices) != len(r.Devices) {
		t.Errorf("json round-trip %+v", back)
	}

	var svg bytes.Buffer
	if err := WriteFaults(&svg, r, SVG); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") || !strings.Contains(svg.String(), "power.fail 1") {
		t.Error("svg output missing chart or power-fail marker")
	}
}

func TestFaultsChartSeries(t *testing.T) {
	c := FaultsChart(observe(NewFaultsBuilder(), faultStream()).Finish())
	// Two devices with injections (sram only replays) + one power-fail marker.
	if len(c.Series) != 3 {
		t.Fatalf("%d series, want 3", len(c.Series))
	}
	disk := c.Series[0]
	if disk.Name != "disk" || !disk.Step {
		t.Errorf("first series %+v", disk)
	}
	last := disk.Points[len(disk.Points)-1]
	if last.Y != 3 {
		t.Errorf("disk cumulative end %v, want 3", last)
	}
	marker := c.Series[2]
	if marker.Points[0].X != 6.0 || marker.Points[1].X != 6.0 {
		t.Errorf("power-fail marker at %v, want x=6s", marker.Points)
	}
}

func TestDiffFaultsSelfIsZero(t *testing.T) {
	r := observe(NewFaultsBuilder(), faultStream()).Finish()
	for _, d := range DiffFaults(r, r) {
		if d.Delta != 0 {
			t.Errorf("self-diff %s = %g, want 0", d.Name, d.Delta)
		}
	}
	other := observe(NewFaultsBuilder(), faultStream()[:6]).Finish() // disk events only
	rows := DiffFaults(other, r)
	if rows[0].Delta != 1 { // injected: 3 → 4
		t.Errorf("injected delta %+v", rows[0])
	}
}

// TestFaultsBuilderMatchesSlice pins the faults report streamed from an
// NDJSON capture to the same builder fed the event slice, on an
// interleaved stream.
func TestFaultsBuilderMatchesSlice(t *testing.T) {
	events := append(faultStream(), syntheticStream()...)
	var capture bytes.Buffer
	sink := obs.NewNDJSONSink(&capture)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	streamed := NewFaultsBuilder()
	if _, err := StreamFiles([]string{"-"}, StreamOptions{Stdin: &capture}, streamed); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := WriteFaults(&got, streamed.Finish(), JSON); err != nil {
		t.Fatal(err)
	}
	if err := WriteFaults(&want, observe(NewFaultsBuilder(), events).Finish(), JSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("streamed and slice-fed faults reports differ")
	}
}
