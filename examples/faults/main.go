// Fault injection: run the same workload with and without a fault plan and
// compare what the faults cost.
//
// This walks the fault-injection stack end to end: a declarative fault.Plan
// (the same JSON schema storagesim -faults accepts, see docs/FAULTS.md),
// the deterministic seeded injector threaded through the devices, and the
// fault report — transient-error retries surfacing in latency and energy,
// wear-out retiring erase units to spares, and power failures exercising
// crash/recovery with its no-lost-writes invariant.
//
//	go run ./examples/faults
//
// The equivalent CLI session:
//
//	storagesim -trace dos -device intel -faults examples/faults/plan.json -fault-seed 42 -v
//	storagesim -trace dos -device intel -faults examples/faults/plan.json -events ev.ndjson
//	obsreport faults -in ev.ndjson
package main

import (
	"fmt"
	"log"
	"os"
	"reflect"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

func main() {
	// 1. Load the declarative fault plan — the same file the CLI takes.
	data, err := os.ReadFile("examples/faults/plan.json")
	if err != nil {
		log.Fatal(err)
	}
	plan, err := fault.ParsePlan(data)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The dos workload on the Intel flash card, fault-free baseline
	// first, then the same run with the plan injected under seed 42.
	t, err := workload.GenerateByName("dos", 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{
		Trace:           t,
		DRAMBytes:       2 * units.MB,
		Kind:            core.FlashCard,
		FlashCardParams: device.IntelSeries2Datasheet(),
	}
	base, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	figs := obsreport.NewFigureSet()
	cfg.Faults = plan
	cfg.FaultSeed = 42
	cfg.Scope = obs.NewScope(nil, figs)
	faulted, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. What the faults cost. Same trace, same card: every difference is
	// injected.
	fmt.Printf("baseline: %.0f J, write mean %.2f ms\n", base.EnergyJ, base.Write.Mean())
	fmt.Printf("faulted:  %.0f J, write mean %.2f ms\n\n", faulted.EnergyJ, faulted.Write.Mean())

	rep := faulted.Faults
	fmt.Printf("injected %d faults (%d read / %d write / %d erase)\n",
		rep.ReadFaults+rep.WriteFaults+rep.EraseFaults,
		rep.ReadFaults, rep.WriteFaults, rep.EraseFaults)
	fmt.Printf("retries %d (%.1f ms backoff), exhausted %d\n",
		rep.Retries, float64(rep.BackoffTime)/1e3, rep.Exhausted)
	fmt.Printf("wear-out: %d units remapped to spares, %d past the pool\n",
		rep.Remaps, rep.SparesExhausted)
	fmt.Printf("power failures: %d, replayed %d blocks, lost %d writes, %d violations\n\n",
		rep.PowerFailures, rep.ReplayedBlocks, rep.LostWrites, len(rep.Violations))

	// 4. The same summary the CLI derives from an NDJSON capture:
	// `obsreport faults -in ev.ndjson`.
	fmt.Println("--- obsreport faults ---")
	if err := obsreport.WriteFaults(os.Stdout, figs.Faults.Finish(), obsreport.Text); err != nil {
		log.Fatal(err)
	}

	// 5. Determinism: the same plan and seed reproduce the exact run.
	again, err := core.Run(core.Config{
		Trace:           t,
		DRAMBytes:       2 * units.MB,
		Kind:            core.FlashCard,
		FlashCardParams: device.IntelSeries2Datasheet(),
		Faults:          plan,
		FaultSeed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame seed reproduces the run exactly: %v\n",
		again.EnergyJ == faulted.EnergyJ && reflect.DeepEqual(again.Faults, faulted.Faults))
}
