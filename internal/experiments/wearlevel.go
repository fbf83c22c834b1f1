package experiments

import (
	"fmt"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/units"
)

// WearLevelRow compares the flash card with and without static wear
// leveling on one trace.
type WearLevelRow struct {
	Trace         string
	Leveling      string
	MaxErase      int64
	MeanErase     float64
	Spread        float64 // max / mean: 1.0 = perfectly level
	CopiedBlocks  int64
	EnergyJ       float64
	LifetimeYears float64 // years to wear out the worst segment at this rate
}

// WearLeveling runs the §2 load-spreading aside: static wear leveling
// bounds the erase-count spread (extending the card's effective lifetime,
// which ends when the *worst* segment hits the endurance limit) at the
// cost of extra cleaning copies.
func WearLeveling(seed int64) ([]WearLevelRow, error) {
	var rows []WearLevelRow
	for _, name := range []string{"mac", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		prep := prepare(t)
		params := device.IntelSeries2Datasheet()
		capacity := units.CeilDiv(units.Bytes(float64(prep.Footprint())/0.90), params.SegmentSize) * params.SegmentSize
		for _, level := range []int64{0, 8} {
			cfg := core.Config{
				Trace:           t,
				Prep:            prep,
				DRAMBytes:       fleet.DefaultDRAM(name),
				Kind:            core.FlashCard,
				FlashCardParams: params,
				FlashCapacity:   capacity,
				WearLeveling:    level,
			}
			res, err := core.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("wearlevel %s/%d: %w", name, level, err)
			}
			label := "off"
			if level > 0 {
				label = fmt.Sprintf("threshold %d", level)
			}
			row := WearLevelRow{
				Trace:        name,
				Leveling:     label,
				MaxErase:     res.MaxEraseCount,
				MeanErase:    res.MeanEraseCount,
				CopiedBlocks: res.CopiedBlocks,
				EnergyJ:      res.EnergyJ,
			}
			if row.MeanErase > 0 {
				row.Spread = float64(row.MaxErase) / row.MeanErase
			}
			// Lifetime: the worst segment consumed MaxErase of its 100k
			// cycles over the trace span; extrapolate to years.
			if row.MaxErase > 0 {
				tracesPerLife := float64(params.EnduranceCycles) / float64(row.MaxErase)
				row.LifetimeYears = tracesPerLife * res.EndTime.Seconds() / (365.25 * 86400)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderWearLevel formats the wear-leveling ablation.
func RenderWearLevel(rows []WearLevelRow) string {
	t := &table{header: []string{"Trace", "Leveling", "Max/unit", "Mean/unit", "Max/mean", "Copied", "Energy (J)", "Lifetime (yr)"}}
	for _, r := range rows {
		t.addRow(r.Trace, r.Leveling, fmt.Sprintf("%d", r.MaxErase), f2(r.MeanErase), f2(r.Spread),
			fmt.Sprintf("%d", r.CopiedBlocks), f0(r.EnergyJ), f1(r.LifetimeYears))
	}
	return "Ablation (§2): static wear leveling at 90% utilization\n" + t.String()
}
