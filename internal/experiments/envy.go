package experiments

import (
	"fmt"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// EnvyRow reports the cleaning-time fraction at one utilization under a
// TPC-A-like transaction load.
type EnvyRow struct {
	Utilization      float64
	CleaningFraction float64
	WriteMeanMs      float64
	WriteStalls      int64
	Amplification    float64
}

// Envy reproduces the eNVy observation the paper quotes in §6: under a
// uniform small-update transaction load (TPC-A), "at a utilization of 80%,
// 45% of the time is spent erasing or copying data within flash, while
// performance was severely degraded at higher utilizations". Uniform
// updates are the cleaner's worst case — every segment decays at the same
// slow rate, so victims are always half-full.
func Envy(seed int64) ([]EnvyRow, error) {
	t, err := workload.TPCA(workload.TPCAConfig{Seed: seed, Ops: 80000, DataMB: 16, TPS: 40})
	if err != nil {
		return nil, err
	}
	// The trace is built afresh on every call, so its prep is local: the
	// process-wide memo would keep every one of them.
	prep := core.PrepareTrace(t)
	params := device.IntelSeries2Datasheet()
	capacity := units.CeilDiv(units.Bytes(float64(prep.Footprint())/0.40), params.SegmentSize) * params.SegmentSize
	var rows []EnvyRow
	for _, util := range []float64{0.40, 0.60, 0.80, 0.90, 0.95} {
		cfg := core.Config{
			Trace:           t,
			Prep:            prep,
			Kind:            core.FlashCard,
			FlashCardParams: params,
			FlashCapacity:   capacity,
			StoredData:      units.Bytes(float64(capacity) * util),
		}
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("envy util %.2f: %w", util, err)
		}
		rows = append(rows, EnvyRow{
			Utilization:      util,
			CleaningFraction: res.CleaningFraction(),
			WriteMeanMs:      res.Write.Mean(),
			WriteStalls:      res.WriteStalls,
			Amplification:    res.WriteAmplification(),
		})
	}
	return rows, nil
}

// RenderEnvy formats the eNVy comparison.
func RenderEnvy(rows []EnvyRow) string {
	t := &table{header: []string{"Utilization", "Cleaning time", "Wr mean (ms)", "Stalled writes", "Write amp"}}
	for _, r := range rows {
		t.addRow(fmt.Sprintf("%.0f%%", r.Utilization*100),
			fmt.Sprintf("%.0f%%", r.CleaningFraction*100),
			f2(r.WriteMeanMs), fmt.Sprintf("%d", r.WriteStalls), f2(r.Amplification))
	}
	return "Extension (§6, eNVy): cleaning-time fraction under a TPC-A-like load (paper quote: 45% at 80%)\n" + t.String()
}
