package experiments

import (
	"fmt"

	"mobilestorage/internal/array"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/fleet"
)

// ArrayBenchRow is one (topology, utilization, health) sample of the
// degraded-mode array sweep: a mirrored or striped flash-card array
// replaying the synth trace either healthy or with member m0 dying halfway
// through.
type ArrayBenchRow struct {
	Topology    string
	Utilization float64
	// Degraded marks the runs where member m0 dies at the trace midpoint
	// (the mirror rebuilds onto a replacement; the stripe limps on with
	// dead shares paying retry backoff).
	Degraded    bool
	EnergyJ     float64
	ReadMeanMs  float64
	WriteMeanMs float64
	Erases      int64
	Rebuilds    int64
	RebuildMs   float64
	Exhausted   int64
	Violations  int
}

// ArrayBenchTopologies lists the swept array shapes.
var ArrayBenchTopologies = []string{"mirror:2xflashcard", "stripe:2xflashcard"}

// ArrayBenchUtilizations is the swept utilization axis — the ends and
// middle of the Figure 2 range keep the 2×3×2 grid fast.
var ArrayBenchUtilizations = []float64{0.40, 0.80, 0.95}

// ArrayBench sweeps array topology × utilization, healthy and degraded: the
// robustness counterpart of Figure 2. The invariant half of the result is
// that every degraded mirror cell completes with zero violations — no
// acknowledged write is lost while a replica survives.
func ArrayBench(seed int64) ([]ArrayBenchRow, error) {
	t, err := Workload("synth", seed)
	if err != nil {
		return nil, err
	}
	prep := prepare(t)
	type cell struct {
		topo     string
		util     float64
		degraded bool
	}
	var cells []cell
	for _, topo := range ArrayBenchTopologies {
		for _, util := range ArrayBenchUtilizations {
			for _, degraded := range []bool{false, true} {
				cells = append(cells, cell{topo, util, degraded})
			}
		}
	}
	rows := make([]ArrayBenchRow, len(cells))
	err = fanOut(len(cells), func(i int) error {
		c := cells[i]
		spec, err := array.ParseSpec(c.topo)
		if err != nil {
			return err
		}
		cfg := core.Config{
			Trace:            t,
			Prep:             prep,
			DRAMBytes:        fleet.DefaultDRAM(t.Name),
			Array:            spec,
			FlashCardParams:  device.IntelSeries2Measured(),
			FlashUtilization: c.util,
			FaultSeed:        seed,
		}
		if c.degraded {
			cfg.MemberFaults = fault.PlanSet{
				"m0": {DieAtUs: int64(t.Duration()) / 2, MaxRetries: 2, BackoffUs: 200, MaxBackoffUs: 5_000},
			}
		}
		res, err := core.Run(cfg)
		if err != nil {
			return fmt.Errorf("arraybench %s util %.2f degraded=%v: %w", c.topo, c.util, c.degraded, err)
		}
		row := ArrayBenchRow{
			Topology:    c.topo,
			Utilization: c.util,
			Degraded:    c.degraded,
			EnergyJ:     res.EnergyJ,
			ReadMeanMs:  res.Read.Mean(),
			WriteMeanMs: res.Write.Mean(),
			Erases:      res.Erases,
		}
		if rep := res.Faults; rep != nil {
			row.Rebuilds = rep.Rebuilds
			row.RebuildMs = float64(rep.RebuildTime) / 1000
			row.Exhausted = rep.Exhausted
			row.Violations = len(rep.Violations)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderArrayBench prints the sweep as a paper-style table.
func RenderArrayBench(rows []ArrayBenchRow) string {
	t := &table{header: []string{"Array", "Util", "Health", "Energy (J)", "Rd mean (ms)", "Wr mean (ms)",
		"Erases", "Rebuilds", "Rebuild (ms)", "Dead-share IO", "Violations"}}
	for _, r := range rows {
		health := "healthy"
		if r.Degraded {
			health = "m0 dies"
		}
		t.addRow(r.Topology, fmt.Sprintf("%.0f%%", r.Utilization*100), health,
			f1(r.EnergyJ), f2(r.ReadMeanMs), f2(r.WriteMeanMs),
			fmt.Sprintf("%d", r.Erases), fmt.Sprintf("%d", r.Rebuilds), f1(r.RebuildMs),
			fmt.Sprintf("%d", r.Exhausted), fmt.Sprintf("%d", r.Violations))
	}
	return "Degraded-mode arrays: topology × utilization, healthy vs. one member dead at the midpoint\n" + t.String()
}
