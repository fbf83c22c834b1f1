package obsreport

import (
	"bytes"
	"encoding/xml"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobilestorage/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// figureEvents is a small hand-built stream exercising every report kind
// deterministically: two spin cycles on two disks, latency-bearing events,
// erases, cleans, energy samples for two components, injected faults with
// their retries, remaps and a power failure, and a mirror member's death,
// rebuild, latent faults and carried cleaning backlog.
func figureEvents() []obs.Event {
	return []obs.Event{
		{T: 1_000_000, Kind: obs.EvDiskSpinDown, Dev: "cu140"},
		{T: 4_000_000, Kind: obs.EvDiskSpinUp, Dev: "cu140", Dur: 3_000_000},
		{T: 2_000_000, Kind: obs.EvDiskSpinDown, Dev: "kh"},
		{T: 9_000_000, Kind: obs.EvDiskSpinUp, Dev: "kh", Dur: 7_000_000},
		{T: 10_000_000, Kind: obs.EvDiskSpinDown, Dev: "cu140"},

		{T: 3_000_000, Kind: obs.EvSRAMFlush, Size: 4096, Dur: 1500},
		{T: 3_500_000, Kind: obs.EvSRAMFlush, Size: 8192, Dur: 2500},
		{T: 5_000_000, Kind: obs.EvCardClean, Addr: 3, Size: 40, Dur: 120_000},
		{T: 7_000_000, Kind: obs.EvCardClean, Addr: 5, Size: 25, Dur: 90_000},
		{T: 7_100_000, Kind: obs.EvCardStall, Dur: 400},

		{T: 5_000_001, Kind: obs.EvCardErase, Addr: 3, Size: 1},
		{T: 7_000_001, Kind: obs.EvCardErase, Addr: 5, Size: 1},
		{T: 8_000_000, Kind: obs.EvCardErase, Addr: 3, Size: 2},

		{T: 2_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 1_500_000},
		{T: 4_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 2_900_000},
		{T: 8_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 6_100_000},
		{T: 2_000_000, Kind: obs.EvEnergySample, Dev: "storage", Size: 700_000},
		{T: 4_000_000, Kind: obs.EvEnergySample, Dev: "storage", Size: 1_200_000},
		{T: 8_000_000, Kind: obs.EvEnergySample, Dev: "storage", Size: 2_600_000},

		{T: 2_500_000, Kind: obs.EvFaultInjected, Dev: "intel", Addr: 1, Size: 1},
		{T: 2_500_000, Kind: obs.EvRetryAttempt, Dev: "intel", Addr: 1, Size: 2, Dur: 200},
		{T: 3_200_000, Kind: obs.EvFaultInjected, Dev: "kh", Addr: 0, Size: 1},
		{T: 3_200_000, Kind: obs.EvRetryAttempt, Dev: "kh", Addr: 0, Size: 2, Dur: 200},
		{T: 5_500_000, Kind: obs.EvPowerFail},
		{T: 5_500_000, Kind: obs.EvRecoveryReplayed, Dev: "sram", Size: 12},
		{T: 6_000_000, Kind: obs.EvFaultInjected, Dev: "intel", Addr: 2, Size: 1},
		{T: 6_000_000, Kind: obs.EvRetryAttempt, Dev: "intel", Addr: 2, Size: 2, Dur: 400},
		{T: 6_000_000, Kind: obs.EvFaultInjected, Dev: "intel", Addr: 2, Size: 2},
		{T: 6_500_000, Kind: obs.EvRemap, Dev: "intel", Addr: 5, Size: 3},
		{T: 8_500_000, Kind: obs.EvRemap, Dev: "intel", Addr: 7, Size: -1},
		{T: 9_000_000, Kind: obs.EvReclaim, Dev: "intel", Addr: 7},

		{T: 3_000_000, Kind: obs.EvFaultLatent, Dev: "m1:intel", Size: 1, Dur: 1500},
		{T: 4_500_000, Kind: obs.EvDeviceDie, Dev: "m0:intel"},
		{T: 4_500_000, Kind: obs.EvArrayDegraded, Dev: "mirror:2xintel", Size: 1},
		{T: 5_500_000, Kind: obs.EvCleaningBacklog, Dev: "m1:intel", Addr: 4, Size: 30, Dur: 9000},
		{T: 7_500_000, Kind: obs.EvArrayRebuild, Dev: "mirror:2xintel", Size: 640, Dur: 3_000_000},
		{T: 8_200_000, Kind: obs.EvFaultLatent, Dev: "m1:intel", Size: 2, Dur: 3000},
	}
}

// renderReport renders one report kind from an event slice in format f,
// through the report table.
func renderReport(t *testing.T, kind string, events []obs.Event, f Format) string {
	t.Helper()
	r, err := NewReport(kind)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := observe(r, events).Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// renderReportSVG renders one report kind's figure from an event slice.
func renderReportSVG(t *testing.T, kind string, events []obs.Event) string {
	t.Helper()
	return renderReport(t, kind, events, SVG)
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s (regenerate with -update and review)", name)
	}
}

// TestGoldenReportSVG pins every report's SVG rendering byte-for-byte.
// Regenerate with `go test ./internal/obsreport -run TestGoldenReport
// -update` and review the diff.
func TestGoldenReportSVG(t *testing.T) {
	for _, report := range FigureKinds() {
		t.Run(report, func(t *testing.T) {
			checkGolden(t, report+".svg", renderReportSVG(t, report, figureEvents()))
		})
	}
}

// goldenExt maps the table formats to their golden-file extensions.
var goldenExt = map[Format]string{Text: ".txt", CSV: ".csv", JSON: ".json"}

// TestGoldenReportFormats pins every report's text, CSV and JSON rendering
// byte-for-byte, like TestGoldenReportSVG does for the figures.
func TestGoldenReportFormats(t *testing.T) {
	for _, report := range FigureKinds() {
		for _, f := range []Format{Text, CSV, JSON} {
			t.Run(report+"/"+string(f), func(t *testing.T) {
				checkGolden(t, report+goldenExt[f], renderReport(t, report, figureEvents(), f))
			})
		}
	}
}

// TestGoldenVsSVG pins the merged two-run chart (the -vs svg rendering).
func TestGoldenVsSVG(t *testing.T) {
	a := observe(NewEnergyBuilder(), figureEvents()).Finish()
	// Run B: same shape, lower energy (a spun-down configuration).
	var bEvents []obs.Event
	for _, e := range figureEvents() {
		if e.Kind == obs.EvEnergySample {
			e.Size = e.Size / 2
		}
		bEvents = append(bEvents, e)
	}
	b := observe(NewEnergyBuilder(), bEvents).Finish()
	merged := MergeCharts(EnergyChart(a), EnergyChart(b), "always-on", "spin-down")
	checkGolden(t, "energy-vs.svg", merged.SVG())
}

func checkWellFormed(t *testing.T, doc string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		if _, err := dec.Token(); err == io.EOF {
			return
		} else if err != nil {
			t.Fatalf("not well-formed XML: %v", err)
		}
	}
}

// Every report SVG — populated or empty — must parse as well-formed XML
// and contain no non-finite coordinates.
func TestReportSVGWellFormedAndFinite(t *testing.T) {
	streams := map[string][]obs.Event{
		"full":   figureEvents(),
		"empty":  nil,
		"single": {{T: 1, Kind: obs.EvEnergySample, Dev: "total", Size: 5}},
	}
	for sname, events := range streams {
		for _, report := range FigureKinds() {
			t.Run(sname+"/"+report, func(t *testing.T) {
				out := renderReportSVG(t, report, events)
				checkWellFormed(t, out)
				for _, bad := range []string{"NaN", "Inf"} {
					if strings.Contains(out, bad) {
						t.Errorf("%s/%s SVG contains %s", sname, report, bad)
					}
				}
			})
		}
	}
}

// Builder maps must not leak iteration order into the rendering: observing
// the same per-device/per-component event sequences interleaved differently
// must render byte-identical SVG.
func TestReportSVGIndependentOfInterleaving(t *testing.T) {
	events := figureEvents()
	rng := rand.New(rand.NewSource(7))
	for _, report := range FigureKinds() {
		want := renderReportSVG(t, report, events)
		for trial := 0; trial < 5; trial++ {
			// Stable-partition the stream by device in a shuffled device
			// order: per-device event order (the semantic order) is
			// preserved, but map insertion order in the per-device and
			// per-component builders changes.
			groups := make(map[string][]obs.Event)
			var keys []string
			for _, e := range events {
				k := e.Dev
				if _, ok := groups[k]; !ok {
					keys = append(keys, k)
				}
				groups[k] = append(groups[k], e)
			}
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			var shuffled []obs.Event
			for _, k := range keys {
				shuffled = append(shuffled, groups[k]...)
			}
			if got := renderReportSVG(t, report, shuffled); got != want {
				t.Errorf("%s: trial %d rendered differently under shuffled group interleaving", report, trial)
			}
		}
	}
}

// The latency chart must not depend on which kind appears first in the
// stream (its builder map is keyed by kind, not device).
func TestLatencySVGIndependentOfKindOrder(t *testing.T) {
	forward := []obs.Event{
		{T: 1, Kind: obs.EvSRAMFlush, Dur: 1500},
		{T: 2, Kind: obs.EvCardClean, Dur: 90_000},
		{T: 3, Kind: obs.EvSRAMFlush, Dur: 2500},
		{T: 4, Kind: obs.EvHybridDestage, Dur: 7000},
	}
	reversed := []obs.Event{forward[3], forward[1], forward[0], forward[2]}
	if renderReportSVG(t, "latency", forward) != renderReportSVG(t, "latency", reversed) {
		t.Error("latency SVG depends on kind first-appearance order")
	}
}

// Repeated rendering of the same finished builders is byte-identical (the
// streaming /plot endpoint re-renders live builders on every scrape).
func TestReportSVGRepeatableRendering(t *testing.T) {
	for _, report := range FigureKinds() {
		first := renderReportSVG(t, report, figureEvents())
		for i := 0; i < 3; i++ {
			if got := renderReportSVG(t, report, figureEvents()); got != first {
				t.Fatalf("%s: render %d differs", report, i+2)
			}
		}
	}
}
