package core

import (
	"math"

	"mobilestorage/internal/obs"
)

// Sampler gauge names: cumulative energy since the start of the run (not
// warm-start adjusted — samples before the warm boundary are meaningful
// too), refreshed at every sampling boundary. GaugeEnergyTotal is the one
// readers of Result.Timeline look up.
const (
	GaugeEnergyTotal   = "energy.total_j"
	gaugeEnergyStorage = "energy.storage_j"
	gaugeEnergyDRAM    = "energy.dram_j"
	gaugeEnergySRAM    = "energy.sram_j"
)

// newSampler builds the run's simulated-time sampler, or nil when sampling
// is disabled (SampleEvery == 0 or no registry). The prepare hook refreshes
// the derived energy gauges and, when tracing, emits sample.energy events,
// so energy-over-time curves can be rebuilt from the NDJSON stream alone.
//
// Energy is read straight from the component meters without forcing lazy
// accruals: nudging a device's clock from instrumentation could perturb
// float summation order and violate the scope-never-changes-results
// invariant. Lazily-accrued standby energy (DRAM) therefore appears at its
// next natural accrual point.
func newSampler(cfg Config, sc *obs.Scope, st *stack, dram dramCache) *obs.Sampler {
	reg := sc.Registry()
	if cfg.SampleEvery <= 0 || reg == nil {
		return nil
	}
	total := sc.Gauge(GaugeEnergyTotal)
	storage := sc.Gauge(gaugeEnergyStorage)
	dramG := sc.Gauge(gaugeEnergyDRAM)
	sramG := sc.Gauge(gaugeEnergySRAM)
	return obs.NewSampler(reg, int64(cfg.SampleEvery), func(tUs int64) {
		storageJ := storageEnergy(st.base)
		var sramJ, dramJ float64
		if st.buffer != nil {
			sramJ = st.buffer.Meter().TotalJ()
		}
		if dram != nil {
			dramJ = dram.Meter().TotalJ()
		}
		totalJ := storageJ + sramJ + dramJ
		storage.Set(storageJ)
		sramG.Set(sramJ)
		dramG.Set(dramJ)
		total.Set(totalJ)
		if sc.Wants(obs.EvEnergySample) {
			sc.Emit(obs.Event{T: tUs, Kind: obs.EvEnergySample, Dev: "storage", Size: microjoules(storageJ)})
			if st.buffer != nil {
				sc.Emit(obs.Event{T: tUs, Kind: obs.EvEnergySample, Dev: "sram", Size: microjoules(sramJ)})
			}
			if dram != nil {
				sc.Emit(obs.Event{T: tUs, Kind: obs.EvEnergySample, Dev: "dram", Size: microjoules(dramJ)})
			}
			sc.Emit(obs.Event{T: tUs, Kind: obs.EvEnergySample, Dev: "total", Size: microjoules(totalJ)})
		}
	})
}

// microjoules converts joules to the integer µJ payload carried by
// sample.energy events.
func microjoules(j float64) int64 {
	return int64(math.Round(j * 1e6))
}
