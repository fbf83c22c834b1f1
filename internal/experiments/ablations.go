package experiments

import (
	"fmt"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/units"
)

// The ablations exercise the design choices DESIGN.md calls out, plus the
// extensions the paper's §7 proposes as future work.

// --------------------------------------------------- cleaning policies

// CleanerRow compares one cleaning policy on one trace.
type CleanerRow struct {
	Trace         string
	Policy        string
	EnergyJ       float64
	WriteMeanMs   float64
	Erases        int64
	MaxErase      int64
	Amplification float64
}

// CleanerPolicies compares greedy (MFFS), cost-benefit (LFS/eNVy), and FIFO
// victim selection at 90% utilization, where the policy choice matters
// most.
func CleanerPolicies(seed int64) ([]CleanerRow, error) {
	var rows []CleanerRow
	for _, name := range []string{"mac", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		prep := prepare(t)
		params := device.IntelSeries2Datasheet()
		capacity := units.CeilDiv(units.Bytes(float64(prep.Footprint())/0.90), params.SegmentSize) * params.SegmentSize
		for _, policy := range []string{"greedy", "cost-benefit", "fifo"} {
			cfg := core.Config{
				Trace:           t,
				Prep:            prep,
				DRAMBytes:       fleet.DefaultDRAM(name),
				Kind:            core.FlashCard,
				FlashCardParams: params,
				FlashCapacity:   capacity,
				CleaningPolicy:  policy,
			}
			res, err := core.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("cleaner %s/%s: %w", name, policy, err)
			}
			rows = append(rows, CleanerRow{
				Trace:         name,
				Policy:        policy,
				EnergyJ:       res.EnergyJ,
				WriteMeanMs:   res.Write.Mean(),
				Erases:        res.Erases,
				MaxErase:      res.MaxEraseCount,
				Amplification: res.WriteAmplification(),
			})
		}
	}
	return rows, nil
}

// RenderCleaner formats the cleaning-policy ablation.
func RenderCleaner(rows []CleanerRow) string {
	t := &table{header: []string{"Trace", "Policy", "Energy (J)", "Wr mean (ms)", "Erases", "Max/unit", "Write amp"}}
	for _, r := range rows {
		t.addRow(r.Trace, r.Policy, f0(r.EnergyJ), f2(r.WriteMeanMs),
			fmt.Sprintf("%d", r.Erases), fmt.Sprintf("%d", r.MaxErase), f2(r.Amplification))
	}
	return "Ablation: flash-card cleaning policy at 90% utilization\n" + t.String()
}

// --------------------------------------------------- SRAM in front of flash

// FlashSRAMRow compares a flash device with and without an SRAM write
// buffer.
type FlashSRAMRow struct {
	Trace       string
	Device      string
	WriteMs     float64
	BufferedMs  float64
	Improvement float64
	EnergyJ     float64
	BufferedJ   float64
}

// FlashSRAM runs the §7 suggestion: "Adding a nonvolatile SRAM write buffer
// to a flash disk should enable it to compete with newer magnetic disks
// that are coupled with SRAM buffers."
func FlashSRAM(seed int64) ([]FlashSRAMRow, error) {
	var rows []FlashSRAMRow
	for _, name := range []string{"mac", "dos", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		for _, dev := range []DeviceSpec{{"sdp5", device.Datasheet}, {"intel", device.Datasheet}} {
			run := func(sram units.Bytes) (*core.Result, error) {
				cfg := core.Config{Trace: t, DRAMBytes: fleet.DefaultDRAM(name)}
				if err := dev.Configure(&cfg); err != nil {
					return nil, err
				}
				cfg.SRAMBytes = sram
				return core.Run(cfg)
			}
			bare, err := run(0)
			if err != nil {
				return nil, err
			}
			buffered, err := run(fleet.DefaultSRAM)
			if err != nil {
				return nil, err
			}
			row := FlashSRAMRow{
				Trace:      name,
				Device:     dev.Name,
				WriteMs:    bare.Write.Mean(),
				BufferedMs: buffered.Write.Mean(),
				EnergyJ:    bare.EnergyJ,
				BufferedJ:  buffered.EnergyJ,
			}
			if row.WriteMs > 0 {
				row.Improvement = 1 - row.BufferedMs/row.WriteMs
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderFlashSRAM formats the flash+SRAM ablation.
func RenderFlashSRAM(rows []FlashSRAMRow) string {
	t := &table{header: []string{"Trace", "Device", "Wr (ms)", "Wr+SRAM (ms)", "Improvement", "E (J)", "E+SRAM (J)"}}
	for _, r := range rows {
		t.addRow(r.Trace, r.Device, f2(r.WriteMs), f2(r.BufferedMs),
			fmt.Sprintf("%.0f%%", r.Improvement*100), f0(r.EnergyJ), f0(r.BufferedJ))
	}
	return "Ablation (§7): 32 KB SRAM write buffer in front of flash\n" + t.String()
}

// --------------------------------------------------- Series 2 vs Series 2+

// Series2PlusRow compares erase generations at high utilization.
type Series2PlusRow struct {
	Trace         string
	Device        string
	WriteMeanMs   float64
	WriteMaxMs    float64
	WriteStalls   int64
	EnergyJ       float64
	LifetimeFrac  float64
	EraseTimeDesc string
}

// Series2Plus runs the §7 hardware extension: the 16-Mbit Series 2+ erases
// blocks in 300 ms (vs. 1.6 s) and endures 1M cycles (vs. 100k), which
// shrinks cleaning stalls at high utilization.
func Series2Plus(seed int64) ([]Series2PlusRow, error) {
	var rows []Series2PlusRow
	for _, name := range []string{"mac", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		prep := prepare(t)
		for _, params := range []device.FlashCardParams{
			device.IntelSeries2Datasheet(), device.IntelSeries2PlusDatasheet(),
		} {
			capacity := units.CeilDiv(units.Bytes(float64(prep.Footprint())/0.95), params.SegmentSize) * params.SegmentSize
			cfg := core.Config{
				Trace:           t,
				Prep:            prep,
				DRAMBytes:       fleet.DefaultDRAM(name),
				Kind:            core.FlashCard,
				FlashCardParams: params,
				FlashCapacity:   capacity,
			}
			res, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Series2PlusRow{
				Trace:         name,
				Device:        params.Name,
				WriteMeanMs:   res.Write.Mean(),
				WriteMaxMs:    res.Write.Max(),
				WriteStalls:   res.WriteStalls,
				EnergyJ:       res.EnergyJ,
				LifetimeFrac:  float64(res.MaxEraseCount) / float64(params.EnduranceCycles),
				EraseTimeDesc: params.EraseTime.String(),
			})
		}
	}
	return rows, nil
}

// RenderSeries2Plus formats the erase-generation ablation.
func RenderSeries2Plus(rows []Series2PlusRow) string {
	t := &table{header: []string{"Trace", "Device", "Erase", "Wr mean (ms)", "Wr max (ms)", "Stalls", "Energy (J)", "Life used"}}
	for _, r := range rows {
		t.addRow(r.Trace, r.Device, r.EraseTimeDesc, f2(r.WriteMeanMs), f1(r.WriteMaxMs),
			fmt.Sprintf("%d", r.WriteStalls), f0(r.EnergyJ), fmt.Sprintf("%.4f%%", r.LifetimeFrac*100))
	}
	return "Ablation (§7): Intel Series 2 vs. Series 2+ at 95% utilization\n" + t.String()
}

// --------------------------------------------------- write-back cache

// WriteBackRow compares write-through and write-back DRAM caches.
type WriteBackRow struct {
	Trace     string
	Device    string
	WTWriteMs float64
	WBWriteMs float64
	WTEnergyJ float64
	WBEnergyJ float64
	WTErases  int64
	WBErases  int64
}

// WriteBack runs the §4.2 aside: "A write-back cache might avoid some
// erasures at the cost of occasional data loss."
func WriteBack(seed int64) ([]WriteBackRow, error) {
	var rows []WriteBackRow
	for _, name := range []string{"mac", "dos"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		for _, dev := range []DeviceSpec{{"cu140", device.Datasheet}, {"intel", device.Datasheet}} {
			run := func(writeBack bool) (*core.Result, error) {
				cfg := core.Config{Trace: t, DRAMBytes: fleet.DefaultDRAM(name), WriteBack: writeBack}
				if err := dev.Configure(&cfg); err != nil {
					return nil, err
				}
				return core.Run(cfg)
			}
			wt, err := run(false)
			if err != nil {
				return nil, err
			}
			wb, err := run(true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, WriteBackRow{
				Trace:     name,
				Device:    dev.Name,
				WTWriteMs: wt.Write.Mean(),
				WBWriteMs: wb.Write.Mean(),
				WTEnergyJ: wt.EnergyJ,
				WBEnergyJ: wb.EnergyJ,
				WTErases:  wt.Erases,
				WBErases:  wb.Erases,
			})
		}
	}
	return rows, nil
}

// RenderWriteBack formats the write-back ablation.
func RenderWriteBack(rows []WriteBackRow) string {
	t := &table{header: []string{"Trace", "Device", "WT wr (ms)", "WB wr (ms)", "WT E (J)", "WB E (J)", "WT erases", "WB erases"}}
	for _, r := range rows {
		t.addRow(r.Trace, r.Device, f2(r.WTWriteMs), f2(r.WBWriteMs),
			f0(r.WTEnergyJ), f0(r.WBEnergyJ), fmt.Sprintf("%d", r.WTErases), fmt.Sprintf("%d", r.WBErases))
	}
	return "Ablation (§4.2): write-back vs. write-through DRAM cache\n" + t.String()
}
