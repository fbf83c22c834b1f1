package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenPreset is one paper storage configuration pinned by a golden file.
type goldenPreset struct {
	name string
	cfg  func() Config
}

// goldenTrace is the deterministic workload every golden preset replays: the
// paper's synthetic stress workload, short enough to keep the suite fast but
// long enough to exercise cleaning, spin-downs, and cache churn.
func goldenTrace(t *testing.T) *Config {
	t.Helper()
	tr, err := workload.Synth(workload.SynthConfig{Seed: 7, Ops: 4000})
	if err != nil {
		t.Fatal(err)
	}
	return &Config{Trace: tr, DRAMBytes: 512 * units.KB}
}

// goldenPresets mirrors the paper's Table 4 device set plus the hybrid
// architecture: every storage kind and parameter source the paper simulates.
func goldenPresets(t *testing.T) []goldenPreset {
	base := func() Config { return *goldenTrace(t) }
	return []goldenPreset{
		{"disk-cu140-measured", func() Config {
			c := base()
			c.Kind = MagneticDisk
			c.Disk = device.CU140Measured()
			c.SpinDown = 5 * units.Second
			c.SRAMBytes = 32 * units.KB
			return c
		}},
		{"disk-kh-datasheet", func() Config {
			c := base()
			c.Kind = MagneticDisk
			c.Disk = device.KittyhawkDatasheet()
			c.SpinDown = 5 * units.Second
			c.SRAMBytes = 32 * units.KB
			return c
		}},
		{"flashdisk-sdp10-measured", func() Config {
			c := base()
			c.Kind = FlashDisk
			c.FlashDiskParams = device.SDP10Measured()
			return c
		}},
		{"flashdisk-sdp5-async", func() Config {
			c := base()
			c.Kind = FlashDisk
			c.FlashDiskParams = device.SDP5Datasheet()
			c.AsyncErase = true
			return c
		}},
		{"flashcard-intel-measured", func() Config {
			c := base()
			c.Kind = FlashCard
			c.FlashCardParams = device.IntelSeries2Measured()
			return c
		}},
		{"flashcard-intel2plus-datasheet", func() Config {
			c := base()
			c.Kind = FlashCard
			c.FlashCardParams = device.IntelSeries2PlusDatasheet()
			return c
		}},
		{"flashcache-hybrid", func() Config {
			c := base()
			c.Kind = FlashCache
			c.Disk = device.CU140Measured()
			c.SpinDown = 5 * units.Second
			c.FlashCardParams = device.IntelSeries2Measured()
			c.FlashCacheBytes = 4 * units.MB
			return c
		}},
	}
}

// goldenSnapshot is the deterministic subset of a run pinned in the golden
// file: headline results, every device counter, the metrics registry, and a
// digest of the byte-exact event stream.
type goldenSnapshot struct {
	Device            string             `json:"device"`
	EnergyJ           float64            `json:"energy_j"`
	EnergyByComponent map[string]float64 `json:"energy_by_component"`
	ReadMeanMs        float64            `json:"read_mean_ms"`
	ReadMaxMs         float64            `json:"read_max_ms"`
	WriteMeanMs       float64            `json:"write_mean_ms"`
	WriteMaxMs        float64            `json:"write_max_ms"`
	MeasuredOps       int                `json:"measured_ops"`
	EndTimeUs         int64              `json:"end_time_us"`
	SpinUps           int64              `json:"spin_ups"`
	SpinDowns         int64              `json:"spin_downs"`
	Erases            int64              `json:"erases"`
	CopiedBlocks      int64              `json:"copied_blocks"`
	HostBlocks        int64              `json:"host_blocks"`
	WriteStalls       int64              `json:"write_stalls"`
	SRAMFlushes       int64              `json:"sram_flushes"`
	SRAMStalledWrites int64              `json:"sram_stalled_writes"`
	CacheHits         int64              `json:"cache_hits"`
	CacheMisses       int64              `json:"cache_misses"`
	Metrics           map[string]int64   `json:"metrics"`
	EventCount        int64              `json:"event_count"`
	EventsSHA256      string             `json:"events_sha256"`
}

// countingSink tees events into an NDJSON byte stream while counting them.
type countingSink struct {
	sink *obs.NDJSONSink
	n    int64
}

func (c *countingSink) Emit(e obs.Event) {
	c.n++
	c.sink.Emit(e)
}

// runObserved executes the config with a full observability scope attached
// and returns the result, the metrics snapshot, and the raw event stream.
func runObserved(t *testing.T, cfg Config) (*Result, *obs.Registry, []byte, int64) {
	t.Helper()
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	cs := &countingSink{sink: obs.NewNDJSONSink(&buf)}
	cfg.Scope = obs.NewScope(reg, cs)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, reg, buf.Bytes(), cs.n
}

func snapshot(res *Result, reg *obs.Registry, events []byte, n int64) goldenSnapshot {
	sum := sha256.Sum256(events)
	return goldenSnapshot{
		Device:            res.Device,
		EnergyJ:           res.EnergyJ,
		EnergyByComponent: res.EnergyByComponent,
		ReadMeanMs:        res.Read.Mean(),
		ReadMaxMs:         res.Read.Max(),
		WriteMeanMs:       res.Write.Mean(),
		WriteMaxMs:        res.Write.Max(),
		MeasuredOps:       res.MeasuredOps,
		EndTimeUs:         int64(res.EndTime),
		SpinUps:           res.SpinUps,
		SpinDowns:         res.SpinDowns,
		Erases:            res.Erases,
		CopiedBlocks:      res.CopiedBlocks,
		HostBlocks:        res.HostBlocks,
		WriteStalls:       res.WriteStalls,
		SRAMFlushes:       res.SRAMFlushes,
		SRAMStalledWrites: res.SRAMStalledWrites,
		CacheHits:         res.CacheHits,
		CacheMisses:       res.CacheMisses,
		Metrics:           reg.Counters(),
		EventCount:        n,
		EventsSHA256:      hex.EncodeToString(sum[:]),
	}
}

// TestGolden pins every paper preset to a golden file: the headline results,
// all device counters, the metrics registry, and the SHA-256 of the NDJSON
// event stream. Regenerate intentionally with `go test ./internal/core
// -run TestGolden -update` and review the diff.
func TestGolden(t *testing.T) {
	for _, p := range goldenPresets(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			res, reg, events, n := runObserved(t, p.cfg())
			got := snapshot(res, reg, events, n)

			path := filepath.Join("testdata", "golden", p.name+".json")
			if *update {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			var want goldenSnapshot
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			gotJSON, _ := json.MarshalIndent(got, "", "  ")
			wantJSON, _ := json.MarshalIndent(want, "", "  ")
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("golden mismatch for %s:\n--- want\n%s\n--- got\n%s", p.name, wantJSON, gotJSON)
			}
		})
	}
}

// TestObservabilityDoesNotChangeResults is the tentpole's core contract:
// attaching a metrics registry and tracer must leave every simulation result
// bit-identical to an un-instrumented run.
func TestObservabilityDoesNotChangeResults(t *testing.T) {
	for _, p := range goldenPresets(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			plain, err := Run(p.cfg())
			if err != nil {
				t.Fatal(err)
			}
			observed, _, _, _ := runObserved(t, p.cfg())
			if plain.EnergyJ != observed.EnergyJ {
				t.Errorf("energy changed under observation: %g vs %g", plain.EnergyJ, observed.EnergyJ)
			}
			if plain.Read.Mean() != observed.Read.Mean() || plain.Read.Max() != observed.Read.Max() ||
				plain.Write.Mean() != observed.Write.Mean() || plain.Write.Max() != observed.Write.Max() {
				t.Error("response times changed under observation")
			}
			if plain.EndTime != observed.EndTime || plain.MeasuredOps != observed.MeasuredOps {
				t.Error("run shape changed under observation")
			}
			if plain.SpinUps != observed.SpinUps || plain.Erases != observed.Erases ||
				plain.CopiedBlocks != observed.CopiedBlocks || plain.WriteStalls != observed.WriteStalls {
				t.Error("device counters changed under observation")
			}
			if plain.Metrics != nil {
				t.Error("un-instrumented run produced a metrics snapshot")
			}
		})
	}
}

// TestMetricsMatchResult cross-checks the metrics registry against the
// independently-maintained Result counters: the two accounting paths must
// agree exactly.
func TestMetricsMatchResult(t *testing.T) {
	for _, p := range goldenPresets(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			res, reg, _, _ := runObserved(t, p.cfg())
			m := reg.Counters()
			check := func(name string, want int64) {
				t.Helper()
				if got := m[name]; got != want {
					t.Errorf("metric %s = %d, Result says %d", name, got, want)
				}
			}
			if res.SpinUps > 0 {
				check("disk.spin_ups", res.SpinUps)
				check("disk.spin_downs", res.SpinDowns)
			}
			if res.CacheHits+res.CacheMisses > 0 {
				check("cache.hits", res.CacheHits)
				check("cache.misses", res.CacheMisses)
			}
			if res.SRAMFlushes > 0 {
				check("sram.flushes", res.SRAMFlushes)
				check("sram.stalled_writes", res.SRAMStalledWrites)
			}
			if res.Erases > 0 && (m["flashcard.erases"] > 0) {
				check("flashcard.erases", res.Erases)
				check("flashcard.copied_blocks", res.CopiedBlocks)
				check("flashcard.host_blocks", res.HostBlocks)
				check("flashcard.stalls", res.WriteStalls)
			}
			if res.Metrics == nil {
				t.Fatal("no metrics snapshot on an instrumented run")
			}
			for k, v := range m {
				if res.Metrics[k] != v {
					t.Errorf("Result.Metrics[%s] = %d, registry says %d", k, res.Metrics[k], v)
				}
			}
		})
	}
}

// TestEventStreamDeterministic runs each preset twice with the same seed and
// requires byte-identical NDJSON event streams — the property that makes
// event traces diffable across refactors.
func TestEventStreamDeterministic(t *testing.T) {
	for _, p := range goldenPresets(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			_, _, ev1, n1 := runObserved(t, p.cfg())
			_, _, ev2, n2 := runObserved(t, p.cfg())
			if n1 != n2 {
				t.Fatalf("event counts differ: %d vs %d", n1, n2)
			}
			if n1 == 0 {
				t.Fatal("preset emitted no events")
			}
			if !bytes.Equal(ev1, ev2) {
				t.Error("event streams not byte-identical across identical runs")
			}
		})
	}
}

// TestEventCountsMatchCounters pins the event stream to the counters: the
// number of spin-up (resp. erase) events must equal the spin-up (erase)
// counter, so neither accounting path can drift.
func TestEventCountsMatchCounters(t *testing.T) {
	count := func(events []byte, kind obs.Kind) int64 {
		var n int64
		for _, line := range bytes.Split(events, []byte("\n")) {
			if bytes.Contains(line, []byte(`"kind":"`+kind.String()+`"`)) {
				n++
			}
		}
		return n
	}
	for _, p := range goldenPresets(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			res, reg, events, _ := runObserved(t, p.cfg())
			m := reg.Counters()
			if res.SpinUps > 0 {
				if got := count(events, obs.EvDiskSpinUp); got != res.SpinUps {
					t.Errorf("%d spin-up events, %d spin-ups", got, res.SpinUps)
				}
			}
			if n := m["flashcard.erases"]; n > 0 {
				if got := count(events, obs.EvCardErase); got != n {
					t.Errorf("%d erase events, counter says %d", got, n)
				}
				if got := count(events, obs.EvCardClean); got != m["flashcard.cleans"] {
					t.Errorf("%d clean events, counter says %d", got, m["flashcard.cleans"])
				}
			}
		})
	}
}
