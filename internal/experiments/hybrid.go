package experiments

import (
	"fmt"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/units"
)

// HybridRow compares the four architectures — disk, flash disk, flash card,
// and the flash-cache hybrid — on one trace.
type HybridRow struct {
	Trace       string
	Device      string
	EnergyJ     float64
	ReadMeanMs  float64
	WriteMeanMs float64
	SpinUps     int64
}

// HybridComparison runs the §6 extension: Marsh, Douglis & Krishnan's
// flash-as-disk-cache architecture against the paper's three. The hybrid
// keeps the disk's capacity (and its cost per megabyte) while approaching
// flash energy: the disk wakes only for cache-miss reads and batched
// destages.
func HybridComparison(seed int64) ([]HybridRow, error) {
	var rows []HybridRow
	for _, name := range []string{"mac", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		configs := []core.Config{
			{
				Trace: t, DRAMBytes: fleet.DefaultDRAM(name),
				Kind: core.MagneticDisk, Disk: device.CU140Datasheet(),
				SpinDown: fleet.DefaultSpinDown, SRAMBytes: fleet.DefaultSRAM,
			},
			{
				Trace: t, DRAMBytes: fleet.DefaultDRAM(name),
				Kind: core.FlashCard, FlashCardParams: device.IntelSeries2Datasheet(),
				FlashCapacity: table4FlashCapacity, StoredData: table4StoredData,
			},
			{
				Trace: t, DRAMBytes: fleet.DefaultDRAM(name),
				Kind: core.FlashCache, Disk: device.CU140Datasheet(),
				FlashCardParams: device.IntelSeries2Datasheet(),
				// The hybrid's disk serves only cache misses and destages,
				// so an aggressive spin-down pays off.
				SpinDown:        2 * units.Second,
				FlashCacheBytes: 24 * units.MB,
			},
		}
		for _, cfg := range configs {
			res, err := core.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("hybrid %s: %w", name, err)
			}
			rows = append(rows, HybridRow{
				Trace:       name,
				Device:      res.Device,
				EnergyJ:     res.EnergyJ,
				ReadMeanMs:  res.Read.Mean(),
				WriteMeanMs: res.Write.Mean(),
				SpinUps:     res.SpinUps,
			})
		}
	}
	return rows, nil
}

// RenderHybrid formats the architecture comparison.
func RenderHybrid(rows []HybridRow) string {
	t := &table{header: []string{"Trace", "Architecture", "Energy (J)", "Rd mean (ms)", "Wr mean (ms)", "Spin-ups"}}
	for _, r := range rows {
		t.addRow(r.Trace, r.Device, f0(r.EnergyJ), f2(r.ReadMeanMs), f2(r.WriteMeanMs), fmt.Sprintf("%d", r.SpinUps))
	}
	return "Extension (§6): flash-as-disk-cache hybrid (Marsh et al., 24 MB cache) vs. the paper’s architectures\n" + t.String()
}
