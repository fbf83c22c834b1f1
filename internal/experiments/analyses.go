package experiments

import (
	"fmt"

	"mobilestorage/internal/compress"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/testbed"
	"mobilestorage/internal/units"
)

// ------------------------------------------------------- §5.3 async erase

// AsyncRow compares the SDP5 with on-demand vs. asynchronous erasure on one
// trace.
type AsyncRow struct {
	Trace        string
	SyncWriteMs  float64
	AsyncWriteMs float64
	Improvement  float64 // fractional write-time reduction (paper: 56–61%)
	SyncEnergyJ  float64
	AsyncEnergyJ float64
	EnergyChange float64 // fractional (paper: minimal)
}

// AsyncCleaning runs §5.3: the SDP5A's decoupled erasure against the
// on-demand SDP5 across all three traces.
func AsyncCleaning(seed int64) ([]AsyncRow, error) {
	var rows []AsyncRow
	for _, name := range []string{"mac", "dos", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		run := func(dev string) (*core.Result, error) {
			cfg := core.Config{Trace: t, DRAMBytes: fleet.DefaultDRAM(name)}
			if err := (DeviceSpec{dev, device.Datasheet}).Configure(&cfg); err != nil {
				return nil, err
			}
			return core.Run(cfg)
		}
		sync, err := run("sdp5")
		if err != nil {
			return nil, err
		}
		async, err := run("sdp5a")
		if err != nil {
			return nil, err
		}
		row := AsyncRow{
			Trace:        name,
			SyncWriteMs:  sync.Write.Mean(),
			AsyncWriteMs: async.Write.Mean(),
			SyncEnergyJ:  sync.EnergyJ,
			AsyncEnergyJ: async.EnergyJ,
		}
		if row.SyncWriteMs > 0 {
			row.Improvement = 1 - row.AsyncWriteMs/row.SyncWriteMs
		}
		if row.SyncEnergyJ > 0 {
			row.EnergyChange = row.AsyncEnergyJ/row.SyncEnergyJ - 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAsync formats the §5.3 comparison.
func RenderAsync(rows []AsyncRow) string {
	t := &table{header: []string{"Trace", "Sync wr (ms)", "Async wr (ms)", "Write improvement",
		"Sync E (J)", "Async E (J)", "Energy change"}}
	for _, r := range rows {
		t.addRow(r.Trace, f2(r.SyncWriteMs), f2(r.AsyncWriteMs),
			fmt.Sprintf("%.0f%%", r.Improvement*100),
			f0(r.SyncEnergyJ), f0(r.AsyncEnergyJ), fmt.Sprintf("%+.1f%%", r.EnergyChange*100))
	}
	return "§5.3: SDP5A asynchronous vs. on-demand erasure (paper: write time −56–61%, energy ≈unchanged)\n" + t.String()
}

// ------------------------------------------------------ §5.1 validation

// ValidationRow compares the simulator against the emulated OmniBook on the
// synth trace for one device.
type ValidationRow struct {
	Device         string
	TestbedReadMs  float64
	SimReadMs      float64
	TestbedWriteMs float64
	SimWriteMs     float64
	ReadRatio      float64 // sim/testbed
	WriteRatio     float64
}

// Validate reruns the §5.1 check: the 6 MB synth trace through both the
// testbed (OmniBook emulation, DOS + MFFS software path) and the simulator
// configured with the measured device parameters. The paper found all
// simulated numbers within a few percent of measured, except flash-card
// reads (4× off, due to cleaning + decompression overhead the controlled
// benchmarks missed) and CU140 writes (2× off, due to the optimistic seek
// assumption).
func Validate(seed int64) ([]ValidationRow, error) {
	synth, err := Workload("synth", seed)
	if err != nil {
		return nil, err
	}
	type devCase struct {
		name    string
		tbCfg   testbed.Config
		simSpec DeviceSpec
	}
	cases := []devCase{
		{"cu140", testbed.Config{Kind: testbed.CU140, Data: compress.Random}, DeviceSpec{"cu140", device.Measured}},
		{"sdp10", testbed.Config{Kind: testbed.SDP10, Data: compress.Random}, DeviceSpec{"sdp10", device.Measured}},
		{"intel", testbed.Config{Kind: testbed.IntelCard, Data: compress.MobyDick}, DeviceSpec{"intel", device.Measured}},
	}
	var rows []ValidationRow
	for _, c := range cases {
		tb, err := testbed.Replay(c.tbCfg, synth, 0.1)
		if err != nil {
			return nil, err
		}
		// Simulator side: measured parameters, no DRAM cache (the OmniBook
		// ran DOS without one), 10 MB devices like the hardware.
		cfg := core.Config{Trace: synth, DRAMBytes: 0}
		if err := c.simSpec.Configure(&cfg); err != nil {
			return nil, err
		}
		cfg.FlashCapacity = 10 * units.MB
		cfg.StoredData = 0 // trace footprint (6 MB)
		cfg.SRAMBytes = 0  // the OmniBook's drive had no deferred spin-up buffer
		res, err := core.Run(cfg)
		if err != nil {
			return nil, err
		}
		row := ValidationRow{
			Device:         c.name,
			TestbedReadMs:  tb.Read.Mean(),
			SimReadMs:      res.Read.Mean(),
			TestbedWriteMs: tb.Write.Mean(),
			SimWriteMs:     res.Write.Mean(),
		}
		if row.TestbedReadMs > 0 {
			row.ReadRatio = row.SimReadMs / row.TestbedReadMs
		}
		if row.TestbedWriteMs > 0 {
			row.WriteRatio = row.SimWriteMs / row.TestbedWriteMs
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderValidation formats the §5.1 comparison.
func RenderValidation(rows []ValidationRow) string {
	t := &table{header: []string{"Device", "Testbed rd (ms)", "Sim rd (ms)", "rd sim/tb",
		"Testbed wr (ms)", "Sim wr (ms)", "wr sim/tb"}}
	for _, r := range rows {
		t.addRow(r.Device, f2(r.TestbedReadMs), f2(r.SimReadMs), f2(r.ReadRatio),
			f2(r.TestbedWriteMs), f2(r.SimWriteMs), f2(r.WriteRatio))
	}
	return "§5.1: simulator vs. emulated OmniBook on the synth trace\n" + t.String()
}

// ------------------------------------------------------- §5.2 endurance

// WearRow reports endurance numbers for one (trace, utilization) pair.
type WearRow struct {
	Trace       string
	Utilization float64
	Erases      int64
	MaxErase    int64
	MeanErase   float64
	// LifetimeFraction is max-erase / endurance: how much of the
	// worst-case segment's life this trace consumed.
	LifetimeFraction float64
}

// Wear runs the §5.2 endurance analysis: erase counts at 40% vs. 95%
// utilization for the mac and hp traces (the paper: mac max per-segment
// erases 7 → 34, mean 0.9 → 1.9; hp erase count tripled).
func Wear(seed int64) ([]WearRow, error) {
	var rows []WearRow
	for _, name := range []string{"mac", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		prep := prepare(t)
		params := device.IntelSeries2Datasheet()
		seg := params.SegmentSize
		capacity := units.CeilDiv(units.Bytes(float64(prep.Footprint())/0.40), seg) * seg
		for _, util := range []float64{0.40, 0.80, 0.95} {
			cfg := core.Config{
				Trace:           t,
				Prep:            prep,
				DRAMBytes:       fleet.DefaultDRAM(name),
				Kind:            core.FlashCard,
				FlashCardParams: params,
				FlashCapacity:   capacity,
				StoredData:      units.Bytes(float64(capacity) * util),
			}
			res, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, WearRow{
				Trace:            name,
				Utilization:      util,
				Erases:           res.Erases,
				MaxErase:         res.MaxEraseCount,
				MeanErase:        res.MeanEraseCount,
				LifetimeFraction: float64(res.MaxEraseCount) / float64(params.EnduranceCycles),
			})
		}
	}
	return rows, nil
}

// RenderWear formats the endurance analysis.
func RenderWear(rows []WearRow) string {
	t := &table{header: []string{"Trace", "Utilization", "Erases", "Max/unit", "Mean/unit", "Worst-case life used"}}
	for _, r := range rows {
		t.addRow(r.Trace, fmt.Sprintf("%.0f%%", r.Utilization*100),
			fmt.Sprintf("%d", r.Erases), fmt.Sprintf("%d", r.MaxErase), f2(r.MeanErase),
			fmt.Sprintf("%.4f%%", r.LifetimeFraction*100))
	}
	return "§5.2: flash endurance vs. storage utilization (Intel card, 100k-cycle limit)\n" + t.String()
}

// ---------------------------------------------------------- battery life

// BatteryRow reports the battery-life extension for one alternative device
// against the CU140, at one storage-energy share.
type BatteryRow struct {
	Trace           string
	Alternative     string
	StorageFraction float64
	StorageSavings  float64
	LifeExtension   float64
}

// BatteryLife computes the §1/§7 headline: flash storage savings translated
// into battery-life extension across the 20–54% storage-share range Marsh &
// Zenel measured [14]. At a 20% share and ~90% savings this yields the
// paper's "22% extension of battery life".
func BatteryLife(seed int64) ([]BatteryRow, error) {
	var rows []BatteryRow
	for _, name := range []string{"mac", "dos", "hp"} {
		t4, err := Table4(name, seed)
		if err != nil {
			return nil, err
		}
		byDevice := make(map[string]float64)
		for _, r := range t4 {
			byDevice[r.Device.Name+"/"+string(r.Device.Source)] = r.EnergyJ
		}
		base := byDevice["cu140/datasheet"]
		for _, alt := range []string{"sdp5/datasheet", "intel/datasheet"} {
			for _, share := range []float64{0.20, 0.54} {
				m := energy.BatteryModel{
					StorageFraction: share,
					BaselineJ:       base,
					AlternativeJ:    byDevice[alt],
				}
				rows = append(rows, BatteryRow{
					Trace:           name,
					Alternative:     alt,
					StorageFraction: share,
					StorageSavings:  m.StorageSavings(),
					LifeExtension:   m.LifeExtension(),
				})
			}
		}
	}
	return rows, nil
}

// RenderBattery formats the battery-life analysis.
func RenderBattery(rows []BatteryRow) string {
	t := &table{header: []string{"Trace", "Alternative", "Storage share", "Storage savings", "Battery life"}}
	for _, r := range rows {
		t.addRow(r.Trace, r.Alternative, fmt.Sprintf("%.0f%%", r.StorageFraction*100),
			fmt.Sprintf("%.0f%%", r.StorageSavings*100), fmt.Sprintf("+%.0f%%", r.LifeExtension*100))
	}
	return "Battery-life extension vs. CU140 (paper: +20–100%, 22% headline)\n" + t.String()
}
