package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// writeEventFile runs a sampled flash-card simulation and captures its
// event stream to an NDJSON file, the same way storagesim -events does.
func writeEventFile(t *testing.T) string {
	return writeEventFileSeed(t, 11)
}

func writeEventFileSeed(t *testing.T, seed int64) string {
	t.Helper()
	tr, err := workload.Synth(workload.SynthConfig{Seed: seed, Ops: 3000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewNDJSONSink(&buf)
	cfg := core.Config{
		Trace:           tr,
		Kind:            core.FlashCard,
		FlashCardParams: device.IntelSeries2Datasheet(),
		DRAMBytes:       256 * units.KB,
		SampleEvery:     units.FromSeconds(20),
		Scope:           obs.NewScope(obs.NewRegistry(), sink),
	}
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.ndjson")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	return runCLIStdin(t, strings.NewReader(""), args...)
}

func runCLIStdin(t *testing.T, stdin io.Reader, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, stdin, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// The acceptance bar: the CLI reproduces at least three derived reports
// from one stream, deterministically across repeated invocations.
func TestReportsDeterministic(t *testing.T) {
	path := writeEventFile(t)
	for _, report := range []string{"latency", "wear", "energy", "cleaning"} {
		for _, format := range []string{"text", "csv", "json"} {
			first, _, err := runCLI(t, report, "-in", path, "-format", format)
			if err != nil {
				t.Fatalf("%s/%s: %v", report, format, err)
			}
			if first == "" {
				t.Fatalf("%s/%s: empty output", report, format)
			}
			second, _, err := runCLI(t, report, "-in", path, "-format", format)
			if err != nil {
				t.Fatalf("%s/%s rerun: %v", report, format, err)
			}
			if first != second {
				t.Errorf("%s/%s: output differs between runs", report, format)
			}
		}
	}
}

func TestReportContent(t *testing.T) {
	path := writeEventFile(t)

	out, _, err := runCLI(t, "wear", "-in", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "erases across") {
		t.Errorf("wear output: %q", out)
	}

	out, _, err = runCLI(t, "energy", "-in", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "total") || !strings.Contains(out, "storage") {
		t.Errorf("energy output missing components: %q", out)
	}

	out, _, err = runCLI(t, "cleaning", "-in", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cleans relocated") {
		t.Errorf("cleaning output: %q", out)
	}

	// timeline on a flash-card stream: no spin events, graceful message.
	out, _, err = runCLI(t, "timeline", "-in", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no spin-state events") {
		t.Errorf("timeline output: %q", out)
	}
}

func TestOutFileAndErrors(t *testing.T) {
	path := writeEventFile(t)
	outPath := filepath.Join(t.TempDir(), "wear.json")
	if _, _, err := runCLI(t, "wear", "-in", path, "-format", "json", "-out", outPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "total_erases") {
		t.Errorf("out file content: %.80s", data)
	}

	if _, _, err := runCLI(t); err == nil {
		t.Error("no args accepted")
	}
	if _, _, err := runCLI(t, "bogus"); err == nil {
		t.Error("unknown report accepted")
	}
	if _, _, err := runCLI(t, "wear", "-in", path, "-format", "xml"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, _, err := runCLI(t, "wear", "-in", "/nonexistent/events"); err == nil {
		t.Error("missing input accepted")
	}
}

// Reading from stdin via -in - (and via the default when -in is absent)
// must match reading the same bytes from a file.
func TestStdinInput(t *testing.T) {
	path := writeEventFile(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, _, err := runCLI(t, "wear", "-in", path)
	if err != nil {
		t.Fatal(err)
	}
	fromStdin, _, err := runCLIStdin(t, bytes.NewReader(data), "wear", "-in", "-")
	if err != nil {
		t.Fatal(err)
	}
	if fromStdin != fromFile {
		t.Errorf("stdin render differs from file render")
	}
	fromDefault, _, err := runCLIStdin(t, bytes.NewReader(data), "wear")
	if err != nil {
		t.Fatal(err)
	}
	if fromDefault != fromFile {
		t.Errorf("default-input render differs from file render")
	}
}

// Repeated -in aggregates shards in argument order; the result matches the
// concatenated stream, and stdin may ride along as one shard.
func TestMultipleInputs(t *testing.T) {
	path := writeEventFile(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Split at a line boundary near the middle.
	cut := bytes.Index(data[len(data)/2:], []byte("\n")) + len(data)/2 + 1
	dir := t.TempDir()
	a := filepath.Join(dir, "a.ndjson")
	b := filepath.Join(dir, "b.ndjson")
	if err := os.WriteFile(a, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, data[cut:], 0o644); err != nil {
		t.Fatal(err)
	}

	whole, _, err := runCLI(t, "wear", "-in", path, "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	split, _, err := runCLI(t, "wear", "-in", a, "-in", b, "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	if split != whole {
		t.Errorf("sharded render differs from whole-file render")
	}
	withStdin, _, err := runCLIStdin(t, bytes.NewReader(data[cut:]), "wear", "-in", a, "-in", "-", "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	if withStdin != whole {
		t.Errorf("file+stdin shard render differs from whole-file render")
	}
}

func TestConflictingFlagCombinations(t *testing.T) {
	path := writeEventFile(t)
	if _, _, err := runCLI(t, "wear", "-in", "-", "-in", "-"); err == nil {
		t.Error("stdin given twice accepted")
	}
	if _, _, err := runCLI(t, "wear", "-in", path, "-in", "-", "-in", "-"); err == nil {
		t.Error("mixed files with repeated stdin accepted")
	}
}

func TestLenientFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.ndjson")
	content := `{"t_us":1,"kind":"flashcard.erase","addr":1,"size":1}` + "\n" +
		"garbage\n" +
		`{"t_us":2,"kind":"flashcard.erase","addr":2,"size":1}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, "wear", "-in", path); err == nil {
		t.Error("strict mode accepted a malformed stream")
	}
	out, errOut, err := runCLI(t, "wear", "-in", path, "-lenient")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 erases") {
		t.Errorf("lenient wear output: %q", out)
	}
	if !strings.Contains(errOut, "skipped 1") {
		t.Errorf("stderr: %q", errOut)
	}
	if !strings.Contains(out, "malformed_lines  1") {
		t.Errorf("text output missing malformed_lines row: %q", out)
	}

	// Structured formats stay schema-clean: no malformed_lines row injected.
	out, _, err = runCLI(t, "wear", "-in", path, "-lenient", "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "malformed_lines") {
		t.Errorf("json output polluted by malformed_lines row: %q", out)
	}
	var parsed map[string]any
	if jerr := json.Unmarshal([]byte(out), &parsed); jerr != nil {
		t.Errorf("lenient json output does not parse: %v", jerr)
	}
}

// -strict pairs with -lenient: the report still renders in full, but the
// exit status flags the corruption for CI.
func TestStrictFlag(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ndjson")
	content := `{"t_us":1,"kind":"flashcard.erase","addr":1,"size":1}` + "\ngarbage\n"
	if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	out, _, err := runCLI(t, "wear", "-in", bad, "-lenient", "-strict")
	if err == nil {
		t.Error("-strict with skipped lines exited zero")
	} else if !strings.Contains(err.Error(), "1 malformed lines") {
		t.Errorf("strict error: %v", err)
	}
	if !strings.Contains(out, "1 erases") {
		t.Errorf("-strict suppressed the report: %q", out)
	}

	// A clean stream under -strict is not an error.
	clean := writeEventFile(t)
	if out, _, err := runCLI(t, "wear", "-in", clean, "-lenient", "-strict"); err != nil {
		t.Fatal(err)
	} else if strings.Contains(out, "malformed_lines") {
		t.Errorf("clean stream grew a malformed_lines row: %q", out)
	}

	// Skipped lines in the -vs stream count too.
	if _, _, err := runCLI(t, "wear", "-in", clean, "-vs", bad, "-lenient", "-strict"); err == nil {
		t.Error("-strict ignored malformed lines in the -vs stream")
	}
}

// xmlWellFormed fails the test unless doc parses cleanly as XML.
func xmlWellFormed(t *testing.T, doc string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		if _, err := dec.Token(); err == io.EOF {
			return
		} else if err != nil {
			t.Fatalf("output is not well-formed XML: %v\n%.300s", err, doc)
		}
	}
}

// Every report renders -format svg: a complete, well-formed, deterministic
// SVG document.
func TestSVGFormat(t *testing.T) {
	path := writeEventFile(t)
	for _, report := range []string{"timeline", "latency", "wear", "energy", "cleaning"} {
		t.Run(report, func(t *testing.T) {
			first, _, err := runCLI(t, report, "-in", path, "-format", "svg")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(first, "<svg") || !strings.Contains(first, "</svg>") {
				t.Fatalf("not an SVG document: %.120s", first)
			}
			xmlWellFormed(t, first)
			second, _, err := runCLI(t, report, "-in", path, "-format", "svg")
			if err != nil {
				t.Fatal(err)
			}
			if first != second {
				t.Error("svg output differs between runs")
			}
		})
	}
}

// -vs against the same file must report all-zero deltas in every report —
// the self-diff property the fuzz target generalizes.
func TestVsSelfDiffZero(t *testing.T) {
	path := writeEventFile(t)
	for _, report := range []string{"timeline", "latency", "wear", "energy", "cleaning"} {
		out, _, err := runCLI(t, report, "-in", path, "-vs", path, "-format", "json")
		if err != nil {
			t.Fatalf("%s: %v", report, err)
		}
		var rows []struct {
			Name  string  `json:"name"`
			Delta float64 `json:"delta"`
		}
		if err := json.Unmarshal([]byte(out), &rows); err != nil {
			t.Fatalf("%s: %v in %q", report, err, out)
		}
		// The flash-card stream has no spin events, so the timeline diff is
		// legitimately empty; every other report must produce rows.
		if len(rows) == 0 && report != "timeline" {
			t.Errorf("%s: self-diff produced no rows", report)
		}
		for _, r := range rows {
			if r.Delta != 0 {
				t.Errorf("%s: self-diff row %s has delta %g", report, r.Name, r.Delta)
			}
		}
	}
}

// -vs of two different runs renders a delta table (text/csv) and a merged
// two-run chart (svg).
func TestVsTwoRuns(t *testing.T) {
	a := writeEventFileSeed(t, 11)
	b := writeEventFileSeed(t, 23)

	out, _, err := runCLI(t, "energy", "-in", a, "-vs", b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "run A") || !strings.Contains(out, "total.final_j") {
		t.Errorf("text delta table: %q", out)
	}

	out, _, err = runCLI(t, "wear", "-in", a, "-vs", b, "-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "name,a,b,delta\n") || !strings.Contains(out, "total_erases") {
		t.Errorf("csv delta table: %q", out)
	}

	out, _, err = runCLI(t, "energy", "-in", a, "-vs", b, "-format", "svg")
	if err != nil {
		t.Fatal(err)
	}
	xmlWellFormed(t, out)
	if !strings.Contains(out, " vs ") || !strings.Contains(out, "[events.ndjson") {
		t.Errorf("merged chart missing run labels: %.200s", out)
	}

	// Deterministic across repeated invocations.
	again, _, err := runCLI(t, "energy", "-in", a, "-vs", b, "-format", "svg")
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Error("-vs svg output differs between runs")
	}
}

// New-flag usage errors, table-driven.
func TestNewFlagErrors(t *testing.T) {
	path := writeEventFile(t)
	cases := []struct {
		name string
		args []string
	}{
		{"vs with stdin twice", []string{"energy", "-in", "-", "-vs", "-"}},
		{"vs stdin with in stdin default conflict", []string{"energy", "-vs", "-"}},
		{"vs missing file", []string{"energy", "-in", path, "-vs", "/nonexistent/run2"}},
		{"unknown format still rejected", []string{"energy", "-in", path, "-format", "png"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := runCLI(t, tc.args...); err == nil {
				t.Errorf("args %v accepted", tc.args)
			}
		})
	}
}

// -vs streams honor -lenient, and svg respects -out.
func TestVsLenientAndOutFile(t *testing.T) {
	path := writeEventFile(t)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ndjson")
	content := `{"t_us":1,"kind":"flashcard.erase","addr":1,"size":1}` + "\ngarbage\n"
	if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, "wear", "-in", path, "-vs", bad); err == nil {
		t.Error("strict mode accepted a malformed -vs stream")
	}
	_, errOut, err := runCLI(t, "wear", "-in", path, "-vs", bad, "-lenient")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "skipped 1 malformed lines in -vs stream") {
		t.Errorf("stderr: %q", errOut)
	}

	svgPath := filepath.Join(dir, "fig.svg")
	if _, _, err := runCLI(t, "energy", "-in", path, "-format", "svg", "-out", svgPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Errorf("svg out file content: %.80s", data)
	}
}
