// Cleaning: flash-card utilization, cleaning policies, and wear.
//
// The paper's §5.2 result is that storage utilization dominates flash-card
// behavior: near capacity, the cleaner copies more live data per reclaimed
// segment, burning energy, delaying writes, and wearing the card out. This
// example reproduces the sweep on the mac workload and then compares the
// three victim-selection policies at high utilization.
//
//	go run ./examples/cleaning
package main

import (
	"fmt"
	"log"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

func main() {
	t, err := workload.GenerateByName("mac", 1)
	if err != nil {
		log.Fatal(err)
	}
	params := device.IntelSeries2Datasheet()
	// Fix the card size so every utilization holds the trace footprint.
	seg := params.SegmentSize
	capacity := units.CeilDiv(units.Bytes(float64(core.PrepareTrace(t).Footprint())/0.40), seg) * seg

	fmt.Println("Utilization sweep (greedy cleaning):")
	fmt.Printf("%-6s %10s %12s %8s %10s %11s\n",
		"util", "energy (J)", "write (ms)", "erases", "write amp", "max erase")
	for _, util := range []float64{0.40, 0.60, 0.80, 0.90, 0.95} {
		res := run(t, params, capacity, units.Bytes(float64(capacity)*util), "greedy")
		fmt.Printf("%-6.0f %10.0f %12.2f %8d %10.2f %11d\n",
			util*100, res.EnergyJ, res.Write.Mean(), res.Erases,
			res.WriteAmplification(), res.MaxEraseCount)
	}

	fmt.Println("\nCleaning policy comparison at 95% utilization:")
	fmt.Printf("%-14s %10s %12s %8s %10s %11s\n",
		"policy", "energy (J)", "write (ms)", "erases", "write amp", "max erase")
	stored := units.Bytes(float64(capacity) * 0.95)
	for _, policy := range []string{"greedy", "cost-benefit", "fifo"} {
		res := run(t, params, capacity, stored, policy)
		fmt.Printf("%-14s %10.0f %12.2f %8d %10.2f %11d\n",
			policy, res.EnergyJ, res.Write.Mean(), res.Erases,
			res.WriteAmplification(), res.MaxEraseCount)
	}
	fmt.Println("\nGreedy minimizes copying; FIFO wear-levels (lower max erase) at the")
	fmt.Println("cost of copying more live data; cost-benefit sits between them.")
}

func run(t *trace.Trace, params device.FlashCardParams, capacity, stored units.Bytes, policy string) *core.Result {
	cfg := core.Config{
		Trace:           t,
		DRAMBytes:       2 * units.MB,
		Kind:            core.FlashCard,
		FlashCardParams: params,
		FlashCapacity:   capacity,
		StoredData:      stored,
		CleaningPolicy:  policy,
	}
	res, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
