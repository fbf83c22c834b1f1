package workload_test

import (
	"fmt"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/workload"
)

// Example generates the paper's synthetic stress-test workload and counts
// its operation mix (§4.1: 60% reads, 35% writes, 5% erases).
func Example() {
	t, err := workload.Synth(workload.SynthConfig{Seed: 1, Ops: 10000})
	if err != nil {
		fmt.Println(err)
		return
	}
	var reads, writes, deletes int
	for _, r := range t.Records {
		switch r.Op {
		case trace.Read:
			reads++
		case trace.Write:
			writes++
		case trace.Delete:
			deletes++
		}
	}
	fmt.Printf("reads %d%%, writes %d%%, erases %d%%\n",
		reads*100/len(t.Records), writes*100/len(t.Records), deletes*100/len(t.Records))
	// Output:
	// reads 56%, writes 38%, erases 5%
}

// ExampleGenerate builds a custom workload from scratch rather than using
// a preset: a small, write-heavy configuration with bursty arrivals.
func ExampleGenerate() {
	cfg := workload.Config{
		Name:            "custom",
		Seed:            7,
		BlockSize:       512,
		Duration:        60_000_000, // one minute, in µs
		NumFiles:        20,
		MeanFileSize:    8 * 1024,
		FileSizeCV:      0.5,
		ReadFraction:    0.25,
		MeanReadBlocks:  2,
		MeanWriteBlocks: 4,
		HotFileFraction: 0.2, HotAccessFraction: 0.8,
		InterArrival: workload.Mixture{Components: []workload.Component{
			{Weight: 1, Kind: workload.ExpComponent, Mean: 0.05},
		}},
	}
	t, err := workload.Generate(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("valid:", t.Validate() == nil)
	// Output:
	// valid: true
}
