// Observability: sample a run over simulated time and analyze its event
// stream in-process.
//
// This wires together the three pieces of the observability stack:
// a registry + tracer scope on core.Run, the simulated-time sampler
// (Config.SampleEvery) producing an energy/metric timeline, and an
// obsreport.FigureSet as the run's tracer, deriving cleaning and wear
// reports from the events as they happen — the same analysis
// `cmd/obsreport` runs on an NDJSON file written with `storagesim -events`.
//
//	go run ./examples/observability
package main

import (
	"fmt"
	"log"
	"os"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

func main() {
	// 1. The dos workload on the Intel flash card at 90% utilization —
	// high enough that the cleaner has real work to report on.
	t, err := workload.GenerateByName("dos", 1)
	if err != nil {
		log.Fatal(err)
	}
	seg := device.IntelSeries2Datasheet().SegmentSize
	capacity := units.CeilDiv(units.Bytes(float64(core.PrepareTrace(t).Footprint())/0.9), seg) * seg

	// 2. Attach a registry (for the sampler) and a figure set as the
	// tracer: its report builders read the cleaning and wear events as the
	// run emits them.
	reg := obs.NewRegistry()
	figs := obsreport.NewFigureSet()

	res, err := core.Run(core.Config{
		Trace:           t,
		DRAMBytes:       2 * units.MB,
		Kind:            core.FlashCard,
		FlashCardParams: device.IntelSeries2Datasheet(),
		FlashCapacity:   capacity,
		StoredData:      units.Bytes(float64(capacity) * 0.9),
		SampleEvery:     units.FromSeconds(60), // snapshot every simulated minute
		Scope:           obs.NewScope(reg, figs),
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The sampler timeline: energy and counters at every boundary.
	fmt.Printf("run: %.0f J over %.0f simulated seconds, %d timeline points\n\n",
		res.EnergyJ, float64(res.EndTime)/1e6, len(res.Timeline.Points))
	// The gauge is cumulative from t=0; Result.EnergyJ excludes the
	// warm-up window, so the final sample is slightly larger (they are
	// equal when Config.WarmFraction disables warm-up).
	last := res.Timeline.Points[len(res.Timeline.Points)-1]
	fmt.Printf("final sample: t=%.0f s, energy.total_j=%.1f\n\n",
		float64(last.TUs)/1e6, last.Gauges[core.GaugeEnergyTotal])

	// 4. Derived reports from the run's events.
	fmt.Println("--- cleaning ---")
	if err := obsreport.WriteCleaning(os.Stdout, figs.Cleaning.Finish(), obsreport.Text); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- wear ---")
	if err := obsreport.WriteWear(os.Stdout, figs.Wear.Finish(), obsreport.Text); err != nil {
		log.Fatal(err)
	}
}
