package experiments

import (
	"fmt"
	"sync"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/index"
	"mobilestorage/internal/plot"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// IndexBenchPoint is one (engine, device, utilization) sample of the
// database-index workload family: a B+tree or LSM run replayed on one
// storage alternative at one storage utilization.
type IndexBenchPoint struct {
	Engine      string
	Device      string
	Utilization float64
	EnergyJ     float64
	ReadMeanMs  float64
	WriteMeanMs float64
	Erases      int64
	MaxErase    int64
	// CleanerAmp is the device-level write amplification (host+copied over
	// host blocks); IndexAmp is the engine-level amplification (pages
	// physically written over bytes logically changed). The paper's cleaner
	// only sees the former; Kim/Whang/Song's page-differential argument is
	// about the product of the two.
	CleanerAmp float64
	IndexAmp   float64
}

// IndexBenchUtilizations is the swept storage-utilization axis — the same
// eight points as Figure 2, so the index family reads against the paper's
// file-system results.
var IndexBenchUtilizations = Fig2Utilizations

// IndexBenchDevices lists the four storage alternatives in display order.
var IndexBenchDevices = []string{"cu140", "sdp5", "intel", "hybrid"}

// indexTraceCache memoizes generated index workloads with their engine
// stats, keyed by engine/seed.
var indexTraceCache sync.Map

type indexTraceEntry struct {
	trace *trace.Trace
	stats index.Stats
}

// IndexWorkloadMix returns the canonical index trace for an engine, seed
// and named op mix ("default" or "read-heavy", per index.MixByName),
// memoized like Workload; the returned stats carry the engine-level write
// amplification.
func IndexWorkloadMix(engine index.EngineKind, seed int64, mixName string) (*trace.Trace, index.Stats, error) {
	cfg, err := index.BenchTraceConfigMix(engine, seed, mixName)
	if err != nil {
		return nil, index.Stats{}, err
	}
	key := fmt.Sprintf("%s/%d/%s", engine, seed, mixName)
	if v, ok := indexTraceCache.Load(key); ok {
		e := v.(indexTraceEntry)
		return e.trace, e.stats, nil
	}
	t, st, err := index.GenerateTrace(cfg)
	if err != nil {
		return nil, index.Stats{}, err
	}
	indexTraceCache.Store(key, indexTraceEntry{trace: t, stats: st})
	return t, st, nil
}

// indexBenchConfig builds the core.Config for one (device, utilization)
// cell. Flash capacity follows the Figure 2 idiom: sized so the lowest
// swept utilization still holds the trace footprint, utilization set by
// filler. The hybrid's axis is its cache size: the flash cache is sized so
// the index footprint occupies util of it. The magnetic disk has no
// utilization knob — its flat curve across the sweep is the result. No
// DRAM cache is configured anywhere: the index's own buffer pool is the
// cache, and double-caching would hide the device traffic under test.
func indexBenchConfig(dev string, util float64, t *trace.Trace, prep *core.TracePrep) (core.Config, error) {
	cfg := core.Config{Trace: t, Prep: prep}
	seg := device.IntelSeries2Datasheet().SegmentSize
	minUtil := IndexBenchUtilizations[0]
	capacity := units.CeilDiv(units.Bytes(float64(prep.Footprint())/minUtil), seg) * seg
	// The index footprint is small next to the file-system traces, so the
	// footprint-derived capacity is dominated by a different bound: at 95%
	// utilization the prefill must still fit beside the card's two reserve
	// segments, which needs 2/(1-0.95) = 40 segments. Utilization is then
	// set by filler — the index shares the card with other resident data,
	// as on a real PDA.
	maxUtil := IndexBenchUtilizations[len(IndexBenchUtilizations)-1]
	if minCap := units.CeilDiv(2*seg, units.Bytes(float64(seg)*(1-maxUtil))) * seg; capacity < minCap {
		capacity = minCap
	}
	if dev == "hybrid" {
		cfg.Kind = core.FlashCache
		cfg.Disk = device.CU140Datasheet()
		cfg.FlashCardParams = device.IntelSeries2Datasheet()
		cfg.SpinDown = 2 * units.Second
		// The hybrid's axis is its cache: sized so the index footprint
		// occupies util of it. No segment rounding — at these footprints
		// rounding would collapse adjacent utilizations onto one size.
		cfg.FlashCacheBytes = units.Bytes(float64(prep.Footprint()) / util)
		return cfg, nil
	}
	if err := fleet.SelectDevice(&cfg, dev, string(device.Datasheet)); err != nil {
		return core.Config{}, fmt.Errorf("indexbench: %w", err)
	}
	if cfg.Kind == core.MagneticDisk {
		cfg.SpinDown = fleet.DefaultSpinDown
		cfg.SRAMBytes = fleet.DefaultSRAM
	} else {
		cfg.FlashCapacity = capacity
		cfg.StoredData = units.Bytes(float64(capacity) * util)
	}
	return cfg, nil
}

// IndexBenchEngineMix replays one index engine's trace, under a named op
// mix, over every storage alternative at 40–95% utilization. The trace is
// generated once (memoized) and the device × utilization grid is swept in
// parallel.
func IndexBenchEngineMix(engine index.EngineKind, seed int64, mixName string) ([]IndexBenchPoint, error) {
	t, st, err := IndexWorkloadMix(engine, seed, mixName)
	if err != nil {
		return nil, fmt.Errorf("indexbench %s: %w", engine, err)
	}
	prep := prepare(t)
	type cell struct {
		dev  string
		util float64
	}
	var cells []cell
	for _, dev := range IndexBenchDevices {
		for _, util := range IndexBenchUtilizations {
			cells = append(cells, cell{dev, util})
		}
	}
	points := make([]IndexBenchPoint, len(cells))
	err = fanOut(len(cells), func(i int) error {
		c := cells[i]
		cfg, err := indexBenchConfig(c.dev, c.util, t, prep)
		if err != nil {
			return err
		}
		res, err := core.Run(cfg)
		if err != nil {
			return fmt.Errorf("indexbench %s/%s util %.2f: %w", engine, c.dev, c.util, err)
		}
		points[i] = IndexBenchPoint{
			Engine:      string(engine),
			Device:      c.dev,
			Utilization: c.util,
			EnergyJ:     res.EnergyJ,
			ReadMeanMs:  res.Read.Mean(),
			WriteMeanMs: res.Write.Mean(),
			Erases:      res.Erases,
			MaxErase:    res.MaxEraseCount,
			CleanerAmp:  res.WriteAmplification(),
			IndexAmp:    st.WriteAmplification(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// IndexBench replays both index engines over every storage alternative at
// 40–95% utilization: the database-index counterpart of Table 4 + Figure 2.
// The headline interaction is the LSM's sequential compaction writes
// against the flash card's segment cleaner.
func IndexBench(seed int64) ([]IndexBenchPoint, error) {
	return IndexBenchMix(seed, "default")
}

// IndexBenchMix is IndexBench under a named op mix — "read-heavy" replays
// index.ReadHeavyMix (a settled database serving mostly queries), where the
// cleaner pressure drops and read latency dominates the comparison.
func IndexBenchMix(seed int64, mixName string) ([]IndexBenchPoint, error) {
	var points []IndexBenchPoint
	for _, eng := range index.EngineKinds {
		ps, err := IndexBenchEngineMix(eng, seed, mixName)
		if err != nil {
			return nil, err
		}
		points = append(points, ps...)
	}
	return points, nil
}

// RenderIndexBench prints the sweep as a paper-style table.
func RenderIndexBench(points []IndexBenchPoint) string {
	t := &table{header: []string{"Engine", "Device", "Util", "Energy (J)", "Rd mean (ms)", "Wr mean (ms)",
		"Erases", "Max/unit", "Cleaner amp", "Index amp"}}
	for _, p := range points {
		t.addRow(p.Engine, p.Device, fmt.Sprintf("%.0f%%", p.Utilization*100),
			f1(p.EnergyJ), f2(p.ReadMeanMs), f2(p.WriteMeanMs),
			fmt.Sprintf("%d", p.Erases), fmt.Sprintf("%d", p.MaxErase),
			f2(p.CleanerAmp), f2(p.IndexAmp))
	}
	return "Index workloads: B+tree vs. LSM across the storage alternatives (40–95% utilization)\n" + t.String()
}

// IndexBenchGrid renders the sweep as small multiples: metric rows
// (write latency, energy, erases) × device columns, two series per panel
// (one per engine), utilization on the x axis.
func IndexBenchGrid(points []IndexBenchPoint) *plot.Grid {
	metrics := []struct {
		label string
		get   func(IndexBenchPoint) float64
	}{
		{"write mean (ms)", func(p IndexBenchPoint) float64 { return p.WriteMeanMs }},
		{"energy (J)", func(p IndexBenchPoint) float64 { return p.EnergyJ }},
		{"erases", func(p IndexBenchPoint) float64 { return float64(p.Erases) }},
	}
	g := &plot.Grid{
		Title: "index engines × storage alternatives vs. utilization",
		Cols:  len(IndexBenchDevices),
	}
	for _, m := range metrics {
		for _, dev := range IndexBenchDevices {
			cell := plot.Chart{
				Title:  dev + ": " + m.label,
				XLabel: "utilization",
				YLabel: m.label,
			}
			for _, eng := range index.EngineKinds {
				var pts []plot.Point
				for _, p := range points {
					if p.Device == dev && p.Engine == string(eng) {
						pts = append(pts, plot.Point{X: p.Utilization, Y: m.get(p)})
					}
				}
				cell.Series = append(cell.Series, plot.Series{Name: string(eng), Points: pts})
			}
			g.Cells = append(g.Cells, cell)
		}
	}
	return g
}
