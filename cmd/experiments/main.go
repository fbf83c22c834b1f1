// Command experiments regenerates the paper's tables and figures.
//
//	experiments -list          # show available experiment IDs
//	experiments -run table4a   # run one experiment
//	experiments -all           # run the full suite in paper order
//	experiments -csv out/      # write the figures as CSVs for plotting
//	experiments -svg out/      # render SVG figures (index small multiples)
//
// The five modes exclude each other: setting more than one is a usage
// error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mobilestorage/internal/experiments"
)

func main() {
	var (
		list = flag.Bool("list", false, "list experiment IDs")
		run  = flag.String("run", "", "experiment ID to run")
		all  = flag.Bool("all", false, "run every experiment")
		csv  = flag.String("csv", "", "write figure CSVs into this directory")
		svg  = flag.String("svg", "", "write SVG figures into this directory")
		seed = flag.Int64("seed", experiments.DefaultSeed, "workload generation seed")
	)
	flag.Parse()
	if set := modeFlags(*list, *run, *all, *csv, *svg); len(set) > 1 {
		last := len(set) - 1
		fmt.Fprintf(os.Stderr, "experiments: %s and %s cannot be combined; choose one of -list, -run, -all, -csv and -svg\n",
			strings.Join(set[:last], ", "), set[last])
		os.Exit(2)
	}

	reg := experiments.Registry()
	switch {
	case *svg != "":
		files, err := writeSVGs(*svg, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
	case *csv != "":
		files, err := experiments.WriteCSVs(*csv, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Printf("%-20s %s\n", id, reg[id].Description)
		}
	case *all:
		for _, id := range experiments.IDs() {
			if err := runOne(reg, id, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	case *run != "":
		if err := runOne(reg, *run, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// modeFlags names the mode flags that are set, in flag order. Each selects
// what the command does, so more than one is a usage error.
func modeFlags(list bool, run string, all bool, csv, svg string) []string {
	var set []string
	for _, m := range []struct {
		name string
		on   bool
	}{{"-list", list}, {"-run", run != ""}, {"-all", all}, {"-csv", csv != ""}, {"-svg", svg != ""}} {
		if m.on {
			set = append(set, m.name)
		}
	}
	return set
}

// writeSVGs renders the figure-shaped experiments as SVG documents.
func writeSVGs(dir string, seed int64) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	points, err := experiments.IndexBench(seed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "indexbench.svg")
	if err := os.WriteFile(path, []byte(experiments.IndexBenchGrid(points).SVG()), 0o644); err != nil {
		return nil, err
	}
	return []string{path}, nil
}

func runOne(reg map[string]experiments.Experiment, id string, seed int64) error {
	e, ok := reg[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q (use -list)", id)
	}
	out, err := e.Run(seed)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	fmt.Println(out)
	return nil
}
