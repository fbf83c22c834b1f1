// Command tracegen generates the synthetic workloads and writes them in
// the text trace format, or prints their Table 3-style characteristics.
//
//	tracegen -workload mac -o mac.trace
//	tracegen -workload mac -binary -o mac.btrace
//	tracegen -workload synth -ops 50000 -o synth.trace
//	tracegen -workload dos -summary
//	tracegen -describe mac.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("workload", "mac", "workload: mac, dos, hp, synth")
		seed     = flag.Int64("seed", 1, "generation seed")
		ops      = flag.Int("ops", 0, "operation count for synth (default 20000)")
		out      = flag.String("o", "", "output trace file (default stdout)")
		binFmt   = flag.Bool("binary", false, "write the compact binary format")
		summary  = flag.Bool("summary", false, "print Table 3-style characteristics instead of the trace")
		check    = flag.Bool("check", false, "compare the generated trace against its published Table 3 targets")
		describe = flag.String("describe", "", "characterize an existing trace file and exit")
	)
	flag.Parse()

	if *describe != "" {
		return describeFile(os.Stdout, *describe)
	}

	var t *trace.Trace
	var err error
	if *name == "synth" {
		t, err = workload.Synth(workload.SynthConfig{Seed: *seed, Ops: *ops})
	} else {
		t, err = workload.GenerateByName(*name, *seed)
	}
	if err != nil {
		return err
	}

	if *check {
		tgt, err := workload.PaperTargets(*name)
		if err != nil {
			return err
		}
		devs := workload.Fidelity(t, tgt)
		fmt.Print(workload.RenderFidelity(devs))
		fmt.Printf("worst deviation: %.1f%%\n", workload.WorstDeviation(devs)*100)
		return nil
	}

	if *summary {
		printSummary(os.Stdout, t)
		return nil
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *binFmt {
		return trace.EncodeBinary(w, t)
	}
	return trace.Encode(w, t)
}

// describeFile characterizes an existing trace file, text or binary, for
// -describe.
func describeFile(w io.Writer, path string) error {
	t, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	printSummary(w, t)
	return nil
}

func printSummary(w io.Writer, t *trace.Trace) {
	c := trace.Characterize(t, 0.1)
	fmt.Fprintf(w, "trace            %s\n", c.Name)
	fmt.Fprintf(w, "records          %d (%d deletes)\n", c.Records, c.Deletes)
	fmt.Fprintf(w, "duration         %v\n", c.Duration)
	fmt.Fprintf(w, "distinct KB      %.0f\n", c.DistinctKBytes)
	fmt.Fprintf(w, "fraction reads   %.2f\n", c.FractionReads)
	fmt.Fprintf(w, "block size       %v\n", c.BlockSize)
	fmt.Fprintf(w, "mean read size   %.1f blocks\n", c.MeanReadBlocks)
	fmt.Fprintf(w, "mean write size  %.1f blocks\n", c.MeanWriteBlocks)
	fmt.Fprintf(w, "inter-arrival    mean %.3fs, max %.1fs, σ %.1fs\n",
		c.InterArrival.Mean(), c.InterArrival.Max(), c.InterArrival.StdDev())
}
