package experiments

import (
	"fmt"

	"mobilestorage/internal/compress"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/testbed"
	"mobilestorage/internal/units"
)

// ---------------------------------------------------------------- Figure 1

// Fig1Series is one curve of Figure 1: per-write latency and instantaneous
// throughput for 4 KB writes to a 1 MB file.
type Fig1Series struct {
	Label  string
	Points []testbed.WriteLatencyPoint
}

// Fig1 reruns the Figure 1 measurement for the paper's five configurations.
// The Intel/MFFS latency grows linearly with cumulative data; the others
// stay flat.
func Fig1() ([]Fig1Series, error) {
	configs := []struct {
		label string
		cfg   testbed.Config
	}{
		{"cu140 uncompressed", testbed.Config{Kind: testbed.CU140, Data: compress.Random}},
		{"cu140 compressed", testbed.Config{Kind: testbed.CU140, Compression: true, Data: compress.MobyDick}},
		{"sdp10 uncompressed", testbed.Config{Kind: testbed.SDP10, Data: compress.Random}},
		{"sdp10 compressed", testbed.Config{Kind: testbed.SDP10, Compression: true, Data: compress.MobyDick}},
		{"intel compressed", testbed.Config{Kind: testbed.IntelCard, Data: compress.MobyDick}},
	}
	var out []Fig1Series
	for _, c := range configs {
		pts, err := testbed.WriteLatencyCurve(c.cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig1Series{Label: c.label, Points: pts})
	}
	return out, nil
}

// RenderFig1 prints the Figure 1 series as columns.
func RenderFig1(series []Fig1Series) string {
	t := &table{header: []string{"Cumulative KB"}}
	for _, s := range series {
		t.header = append(t.header, s.Label+" lat(ms)", s.Label+" KB/s")
	}
	if len(series) == 0 || len(series[0].Points) == 0 {
		return "Figure 1: no data\n"
	}
	for i := range series[0].Points {
		cells := []string{f0(series[0].Points[i].CumulativeKB)}
		for _, s := range series {
			cells = append(cells, f1(s.Points[i].LatencyMs), f0(s.Points[i].ThroughputKBs))
		}
		t.addRow(cells...)
	}
	return "Figure 1: 4 KB writes to a 1 MB file (per-32KB averages)\n" + t.String()
}

// ---------------------------------------------------------------- Figure 2

// Fig2Point is one utilization sample of Figure 2 for one trace.
type Fig2Point struct {
	Trace        string
	Utilization  float64
	EnergyJ      float64
	WriteMeanMs  float64
	Erases       int64
	MaxErase     int64
	MeanErase    float64
	WriteStalls  int64
	CopiedBlocks int64
}

// Fig2Utilizations are the storage utilizations swept in Figure 2.
var Fig2Utilizations = []float64{0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95}

// Fig2 sweeps flash-card storage utilization for each trace (Intel
// datasheet parameters, 128 KB segments). The flash capacity is fixed per
// trace — large relative to the trace footprint — and utilization is set by
// preallocating filler data, exactly like §5.2.
func Fig2(seed int64) ([]Fig2Point, error) {
	var out []Fig2Point
	for _, name := range []string{"mac", "dos", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		// One prep per trace: the eight utilization runs share the same
		// validation, hints, and footprint.
		prep := prepare(t)
		// Fix the card size so the lowest utilization in the sweep still
		// holds the whole trace footprint, then set utilization by filler.
		seg := device.IntelSeries2Datasheet().SegmentSize
		minUtil := Fig2Utilizations[0]
		capacity := units.CeilDiv(units.Bytes(float64(prep.Footprint())/minUtil), seg) * seg
		points := make([]Fig2Point, len(Fig2Utilizations))
		err = fanOut(len(Fig2Utilizations), func(i int) error {
			util := Fig2Utilizations[i]
			stored := units.Bytes(float64(capacity) * util)
			cfg := core.Config{
				Trace:           t,
				Prep:            prep,
				DRAMBytes:       fleet.DefaultDRAM(name),
				Kind:            core.FlashCard,
				FlashCardParams: device.IntelSeries2Datasheet(),
				FlashCapacity:   capacity,
				StoredData:      stored,
			}
			res, err := core.Run(cfg)
			if err != nil {
				return fmt.Errorf("fig2 %s util %.2f: %w", name, util, err)
			}
			points[i] = Fig2Point{
				Trace:        name,
				Utilization:  util,
				EnergyJ:      res.EnergyJ,
				WriteMeanMs:  res.Write.Mean(),
				Erases:       res.Erases,
				MaxErase:     res.MaxEraseCount,
				MeanErase:    res.MeanEraseCount,
				WriteStalls:  res.WriteStalls,
				CopiedBlocks: res.CopiedBlocks,
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, points...)
	}
	return out, nil
}

// RenderFig2 prints the Figure 2 sweep.
func RenderFig2(points []Fig2Point) string {
	t := &table{header: []string{"Trace", "Utilization", "Energy (J)", "Wr mean (ms)",
		"Erases", "Max/unit", "Mean/unit", "Stalled writes"}}
	for _, p := range points {
		t.addRow(p.Trace, fmt.Sprintf("%.0f%%", p.Utilization*100), f0(p.EnergyJ), f2(p.WriteMeanMs),
			fmt.Sprintf("%d", p.Erases), fmt.Sprintf("%d", p.MaxErase), f2(p.MeanErase),
			fmt.Sprintf("%d", p.WriteStalls))
	}
	return "Figure 2 (+§5.2 endurance): flash card vs. storage utilization\n" + t.String()
}

// ---------------------------------------------------------------- Figure 3

// Fig3Series is one live-data curve of Figure 3.
type Fig3Series struct {
	LiveData units.Bytes
	Points   []testbed.OverwritePoint
}

// Fig3 reruns the Figure 3 measurement: 20 × 1 MB of random 4 KB
// overwrites on a 10 MB Intel card holding 1, 9, and 9.5 MB of live data.
func Fig3(seed int64) ([]Fig3Series, error) {
	var out []Fig3Series
	for _, live := range []units.Bytes{1 * units.MB, 9 * units.MB, 9*units.MB + 512*units.KB} {
		pts, err := testbed.OverwriteCurve(live, 20, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig3Series{LiveData: live, Points: pts})
	}
	return out, nil
}

// RenderFig3 prints the Figure 3 curves.
func RenderFig3(series []Fig3Series) string {
	t := &table{header: []string{"Cumulative MB"}}
	for _, s := range series {
		t.header = append(t.header, s.LiveData.String()+" live (KB/s)")
	}
	if len(series) == 0 {
		return "Figure 3: no data\n"
	}
	for i := range series[0].Points {
		cells := []string{f0(series[0].Points[i].CumulativeMB)}
		for _, s := range series {
			cells = append(cells, f1(s.Points[i].ThroughputKBs))
		}
		t.addRow(cells...)
	}
	return "Figure 3: overwrite throughput on a 10 MB Intel card under MFFS\n" + t.String()
}

// ---------------------------------------------------------------- Figure 4

// Fig4Point is one (device, flash size, DRAM size) sample of Figure 4.
type Fig4Point struct {
	Device        string
	FlashMB       int
	DRAMKB        int64
	Utilization   float64
	EnergyJ       float64
	OverallMeanMs float64
}

// Fig4DRAMSizes are the cache sizes swept (0–4 MB).
var Fig4DRAMSizes = []units.Bytes{0, 512 * units.KB, 1 * units.MB, 2 * units.MB, 3 * units.MB, 4 * units.MB}

// Fig4 reproduces the DRAM-vs-flash trade-off: the dos trace with 32 MB of
// stored data, flash sizes 34–38 MB (Intel) plus a 34 MB SDP5, and DRAM
// from 0 to 4 MB (§5.4).
func Fig4(seed int64) ([]Fig4Point, error) {
	t, err := Workload("dos", seed)
	if err != nil {
		return nil, err
	}
	const stored = 32 * units.MB
	prep := prepare(t)
	var out []Fig4Point
	for flashMB := 34; flashMB <= 38; flashMB++ {
		for _, dram := range Fig4DRAMSizes {
			cfg := core.Config{
				Trace:           t,
				Prep:            prep,
				DRAMBytes:       dram,
				Kind:            core.FlashCard,
				FlashCardParams: device.IntelSeries2Datasheet(),
				FlashCapacity:   units.Bytes(flashMB) * units.MB,
				StoredData:      stored,
			}
			res, err := core.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig4 intel %dMB dram %v: %w", flashMB, dram, err)
			}
			out = append(out, Fig4Point{
				Device:        "intel",
				FlashMB:       flashMB,
				DRAMKB:        int64(dram / units.KB),
				Utilization:   float64(stored) / float64(units.Bytes(flashMB)*units.MB),
				EnergyJ:       res.EnergyJ,
				OverallMeanMs: res.Overall.Mean(),
			})
		}
	}
	// SDP5 at 34 MB: flash-disk behavior is independent of its size (§5.4).
	for _, dram := range Fig4DRAMSizes {
		cfg := core.Config{
			Trace:           t,
			Prep:            prep,
			DRAMBytes:       dram,
			Kind:            core.FlashDisk,
			FlashDiskParams: device.SDP5Datasheet(),
			FlashCapacity:   34 * units.MB,
			StoredData:      stored,
		}
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig4 sdp5 dram %v: %w", dram, err)
		}
		out = append(out, Fig4Point{
			Device:        "sdp5",
			FlashMB:       34,
			DRAMKB:        int64(dram / units.KB),
			Utilization:   float64(stored) / float64(34*units.MB),
			EnergyJ:       res.EnergyJ,
			OverallMeanMs: res.Overall.Mean(),
		})
	}
	return out, nil
}

// RenderFig4 prints the Figure 4 sweep.
func RenderFig4(points []Fig4Point) string {
	t := &table{header: []string{"Device", "Flash (MB)", "Util", "DRAM (KB)", "Energy (J)", "Overall mean (ms)"}}
	for _, p := range points {
		t.addRow(p.Device, fmt.Sprintf("%d", p.FlashMB), fmt.Sprintf("%.1f%%", p.Utilization*100),
			fmt.Sprintf("%d", p.DRAMKB), f0(p.EnergyJ), f2(p.OverallMeanMs))
	}
	return "Figure 4: energy and over-all response vs. DRAM and flash size (dos)\n" + t.String()
}

// ---------------------------------------------------------------- Figure 5

// Fig5Point is one (trace, SRAM size) sample of Figure 5, normalized to the
// no-SRAM configuration of the same trace.
type Fig5Point struct {
	Trace            string
	SRAMKB           int64
	EnergyJ          float64
	WriteMeanMs      float64
	NormalizedEnergy float64
	NormalizedWrite  float64
}

// Fig5SRAMSizes are the buffer sizes swept (0, 32 KB, 512 KB, 1 MB).
var Fig5SRAMSizes = []units.Bytes{0, 32 * units.KB, 512 * units.KB, 1 * units.MB}

// Fig5 sweeps the SRAM write-buffer size in front of the CU140 for each
// trace (§5.5), normalizing to the no-SRAM case.
func Fig5(seed int64) ([]Fig5Point, error) {
	var out []Fig5Point
	for _, name := range []string{"mac", "dos", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		prep := prepare(t)
		var baseEnergy, baseWrite float64
		for _, sram := range Fig5SRAMSizes {
			cfg := core.Config{
				Trace:     t,
				Prep:      prep,
				DRAMBytes: fleet.DefaultDRAM(name),
				Kind:      core.MagneticDisk,
				Disk:      device.CU140Datasheet(),
				SpinDown:  fleet.DefaultSpinDown,
				SRAMBytes: sram,
			}
			res, err := core.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s sram %v: %w", name, sram, err)
			}
			p := Fig5Point{
				Trace:       name,
				SRAMKB:      int64(sram / units.KB),
				EnergyJ:     res.EnergyJ,
				WriteMeanMs: res.Write.Mean(),
			}
			if sram == 0 {
				baseEnergy, baseWrite = p.EnergyJ, p.WriteMeanMs
			}
			if baseEnergy > 0 {
				p.NormalizedEnergy = p.EnergyJ / baseEnergy
			}
			if baseWrite > 0 {
				p.NormalizedWrite = p.WriteMeanMs / baseWrite
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// RenderFig5 prints the Figure 5 sweep.
func RenderFig5(points []Fig5Point) string {
	t := &table{header: []string{"Trace", "SRAM (KB)", "Energy (J)", "Wr mean (ms)", "Norm energy", "Norm write"}}
	for _, p := range points {
		t.addRow(p.Trace, fmt.Sprintf("%d", p.SRAMKB), f0(p.EnergyJ), f2(p.WriteMeanMs),
			f2(p.NormalizedEnergy), fmt.Sprintf("%.3f", p.NormalizedWrite))
	}
	return "Figure 5: CU140 + SRAM write buffer, normalized to no SRAM\n" + t.String()
}
