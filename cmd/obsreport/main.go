// Command obsreport computes derived reports from a simulator event stream
// (the NDJSON file written by storagesim -events).
//
// Usage:
//
//	obsreport <report> [flags]
//
// Reports:
//
//	timeline   per-device spin-state history and idle-time distribution
//	latency    per-event-kind duration quantiles (p50/p90/p99/max)
//	wear       per-segment flash erase counts and wear spread
//	energy     cumulative energy over time per component (needs -sample)
//	cleaning   flash-card cleaner work and live-blocks-per-clean
//	faults     injected faults, retries/backoff, remaps, and power failures
//	array      member deaths, mirror degradations/rebuilds, latent faults, backlog
//
// Ingestion is streaming: events flow from the input straight into the
// report builder, so multi-gigabyte captures — including ones piped on
// stdin — process at constant memory. -in may be repeated; the shards are
// decoded on up to GOMAXPROCS goroutines but always aggregated in argument
// order, so the output is identical to concatenating the files first.
//
// A malformed line normally aborts the report. -lenient skips such lines
// instead; the skip count goes to stderr and, for text output, a
// malformed_lines row after the report. Add -strict to still exit non-zero
// when anything was skipped — the full report for humans, a failing status
// for CI.
//
// -format svg renders the report as a standalone SVG figure — the paper's
// curves without external tooling. -vs run2.ndjson aggregates a second run
// independently and compares the two: text/csv/json render a delta table
// (run A, run B, B−A per quantity), svg overlays both runs' curves on one
// chart.
//
// Examples:
//
//	storagesim -trace mac -device cu140 -events ev.ndjson
//	obsreport timeline -in ev.ndjson
//	obsreport latency -in ev.ndjson -format csv -out lat.csv
//	obsreport energy -in ev.ndjson -format svg -out fig2.svg
//	obsreport energy -in spindown.ndjson -vs alwayson.ndjson
//	obsreport wear -in sweep-a.ndjson -in sweep-b.ndjson -format json
//	zcat huge.ndjson.gz | obsreport cleaning -in -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mobilestorage/internal/obsreport"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}

// inputList collects repeated -in flags.
type inputList []string

func (l *inputList) String() string { return fmt.Sprint([]string(*l)) }

func (l *inputList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return usageError(stderr)
	}
	name := args[0]
	a, err := obsreport.NewReport(name)
	if err != nil {
		fmt.Fprintf(stderr, "unknown report %q\n", name)
		return usageError(stderr)
	}

	fs := flag.NewFlagSet("obsreport "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var ins inputList
	fs.Var(&ins, "in", "NDJSON event stream to read (- for stdin); repeat to aggregate shards")
	var (
		format  = fs.String("format", "text", "output format: text, csv, json, svg")
		out     = fs.String("out", "-", "output file (- for stdout)")
		lenient = fs.Bool("lenient", false, "skip malformed lines instead of aborting")
		strict  = fs.Bool("strict", false, "exit non-zero if any malformed lines were skipped (pairs with -lenient)")
		vs      = fs.String("vs", "", "second run to compare against (NDJSON file, - for stdin)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	f, err := obsreport.ParseFormat(*format)
	if err != nil {
		return err
	}
	if len(ins) == 0 {
		ins = inputList{"-"}
	}
	stdins := 0
	for _, in := range ins {
		if in == "-" {
			stdins++
		}
	}
	if *vs == "-" {
		stdins++
	}
	if stdins > 1 {
		return fmt.Errorf("stdin (-) may be given at most once across -in and -vs")
	}

	opt := obsreport.StreamOptions{Lenient: *lenient, Stdin: stdin}
	stats, err := obsreport.StreamFiles(ins, opt, a)
	if err != nil {
		return err
	}
	if stats.Skipped > 0 {
		fmt.Fprintf(stderr, "obsreport: skipped %d malformed lines\n", stats.Skipped)
	}

	skipped := stats.Skipped
	render := a.Write
	if *vs != "" {
		b, _ := obsreport.NewReport(name) // name is known: a was built from it
		vsStats, err := obsreport.StreamFiles([]string{*vs}, opt, b)
		if err != nil {
			return err
		}
		if vsStats.Skipped > 0 {
			fmt.Fprintf(stderr, "obsreport: skipped %d malformed lines in -vs stream\n", vsStats.Skipped)
		}
		skipped += vsStats.Skipped
		labelA, labelB := runLabels(ins[0], *vs)
		render = func(w io.Writer, f obsreport.Format) error {
			if f == obsreport.SVG {
				return obsreport.MergeCharts(a.Chart(), b.Chart(), labelA, labelB).Render(w)
			}
			return obsreport.WriteDelta(w, a.Diff(b), f)
		}
	}

	// Corruption is part of the answer, not just a side note: in lenient
	// mode a skipped line means the report is computed from a subset of the
	// capture, so the text rendering carries a malformed_lines row. The row
	// is appended here rather than inside the Write* renderers so a clean
	// capture renders the same wherever its events come from, and the
	// structured formats (csv/json/svg) stay schema-clean.
	if skipped > 0 {
		inner := render
		render = func(w io.Writer, f obsreport.Format) error {
			if err := inner(w, f); err != nil {
				return err
			}
			if f == obsreport.Text {
				fmt.Fprintf(w, "\nmalformed_lines  %d (report computed without them)\n", skipped)
			}
			return nil
		}
	}

	if *out != "-" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := render(file, f); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
	} else if err := render(stdout, f); err != nil {
		return err
	}
	if *strict && skipped > 0 {
		return fmt.Errorf("%d malformed lines skipped (-strict)", skipped)
	}
	return nil
}

// runLabels derives legend labels for a two-run comparison from the input
// paths, disambiguating when both runs share a base name (e.g. self-diff).
func runLabels(inPath, vsPath string) (string, string) {
	name := func(p string) string {
		if p == "-" {
			return "stdin"
		}
		return filepath.Base(p)
	}
	a, b := name(inPath), name(vsPath)
	if a == b {
		return a + " (A)", b + " (B)"
	}
	return a, b
}

func usageError(w io.Writer) error {
	fmt.Fprintf(w, "usage: obsreport <%s> [-in events.ndjson ...] [-vs run2.ndjson] [-format text|csv|json|svg] [-out file] [-lenient] [-strict]\n",
		strings.Join(obsreport.FigureKinds(), "|"))
	return fmt.Errorf("missing or unknown report")
}
