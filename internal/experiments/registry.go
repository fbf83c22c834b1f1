package experiments

// Experiment is a runnable reproduction unit: it executes and returns the
// rendered text report.
type Experiment struct {
	ID          string
	Description string
	Run         func(seed int64) (string, error)
}

// list holds every experiment in paper order: tables, figures, analyses,
// ablations, then the extensions. IDs returns this order.
var list = []Experiment{
	{"table1", "measured device throughput on the emulated OmniBook", text(noSeed(Table1), RenderTable1)},
	{"table2", "manufacturers' specifications (device catalog)", func(int64) (string, error) {
		return RenderTable2(Table2()), nil
	}},
	{"table3", "trace characteristics", text(Table3, RenderTable3)},
	{"table4a", "energy and response per device, mac trace", table4Runner("mac")},
	{"table4b", "energy and response per device, dos trace", table4Runner("dos")},
	{"table4c", "energy and response per device, hp trace", table4Runner("hp")},
	{"fig1", "write latency/throughput vs. cumulative data (MFFS anomaly)", text(noSeed(Fig1), RenderFig1)},
	{"fig2", "flash card energy/response vs. storage utilization", text(Fig2, RenderFig2)},
	{"fig3", "overwrite throughput vs. live data on a 10 MB card", text(Fig3, RenderFig3)},
	{"fig4", "energy/response vs. DRAM and flash size (dos)", text(Fig4, RenderFig4)},
	{"fig5", "energy/write response vs. SRAM size", text(Fig5, RenderFig5)},
	{"async", "§5.3 asynchronous flash-disk erasure", text(AsyncCleaning, RenderAsync)},
	{"validate", "§5.1 simulator vs. testbed on the synth trace", text(Validate, RenderValidation)},
	{"wear", "§5.2 endurance vs. utilization", text(Wear, RenderWear)},
	{"battery", "battery-life extension headline", text(BatteryLife, RenderBattery)},
	{"ablate-cleaner", "cleaning-policy comparison", text(CleanerPolicies, RenderCleaner)},
	{"ablate-flash-sram", "SRAM write buffer in front of flash (§7)", text(FlashSRAM, RenderFlashSRAM)},
	{"ablate-series2plus", "Series 2 vs. Series 2+ erase generation (§7)", text(Series2Plus, RenderSeries2Plus)},
	{"ablate-writeback", "write-back vs. write-through cache (§4.2)", text(WriteBack, RenderWriteBack)},
	{"ablate-spindown", "disk spin-down policy comparison (§2, §5.1)", text(SpinDownPolicies, RenderSpinDown)},
	{"ablate-wearlevel", "static wear leveling (§2)", text(WearLeveling, RenderWearLevel)},
	{"hybrid", "flash-as-disk-cache architecture (§6, Marsh et al.)", text(HybridComparison, RenderHybrid)},
	{"envy", "cleaning-time fraction under TPC-A (§6, eNVy)", text(Envy, RenderEnvy)},
	{"ablate-mffs", "MFFS 2.00 vs. a repaired MFFS (§7)", text(noSeed(MFFSFixed), RenderMFFSFixed)},
	{"seeds", "Table 4 robustness across workload seeds", func(seed int64) (string, error) {
		rows, err := SeedSensitivity("mac", []int64{seed, seed + 1, seed + 2, seed + 3, seed + 4})
		if err != nil {
			return "", err
		}
		return RenderSeeds(rows), nil
	}},
	{"energy-time", "cumulative energy over the mac trace (sampler timeline)", text(EnergyOverTime, RenderEnergyOverTime)},
	{"cleaning-efficiency", "cleaner work vs. utilization from the event stream (§5.3)", text(CleaningEfficiency, RenderCleaningEfficiency)},
	{"indexbench", "B+tree vs. LSM index workloads across devices and utilizations", text(IndexBench, RenderIndexBench)},
	{"indexbench-readheavy", "index workloads under the read-heavy op mix (settled database)", func(seed int64) (string, error) {
		points, err := IndexBenchMix(seed, "read-heavy")
		if err != nil {
			return "", err
		}
		return "Op mix: read-heavy (15/65/15/5 insert/lookup/scan/delete)\n" + RenderIndexBench(points), nil
	}},
	{"arraybench", "degraded-mode device arrays: mirror/stripe × utilization, healthy vs. one member dead", text(ArrayBench, RenderArrayBench)},
}

// text adapts an experiment and the renderer of its result to
// Experiment.Run.
func text[T any](run func(seed int64) (T, error), render func(T) string) func(int64) (string, error) {
	return func(seed int64) (string, error) {
		v, err := run(seed)
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}

// noSeed adapts an experiment that takes no seed (the OmniBook testbed
// runs) to text.
func noSeed[T any](run func() (T, error)) func(int64) (T, error) {
	return func(int64) (T, error) { return run() }
}

func table4Runner(traceName string) func(int64) (string, error) {
	return func(seed int64) (string, error) {
		rows, err := Table4(traceName, seed)
		if err != nil {
			return "", err
		}
		return RenderTable4(traceName, rows), nil
	}
}

// Registry returns every experiment keyed by ID.
func Registry() map[string]Experiment {
	m := make(map[string]Experiment, len(list))
	for _, e := range list {
		m[e.ID] = e
	}
	return m
}

// IDs returns experiment IDs in paper order: tables, figures, analyses,
// ablations, then the extensions.
func IDs() []string {
	ids := make([]string, len(list))
	for i, e := range list {
		ids[i] = e.ID
	}
	return ids
}
