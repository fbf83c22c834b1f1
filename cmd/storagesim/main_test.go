package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mobilestorage/internal/core"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestMetricsGolden pins the registry's output on the two runs that fill
// its histograms: disk.sleep_ms on mac on cu140 (159 spin-ups) and
// flashcard.clean_ms on mac on intel at 95% utilization (4,963 cleans).
// The -metrics stdout comes from the command, re-executed as
// TestHostileTraceFileExits does; the /metrics exposition comes from the
// same configuration run in process, whose registry dump must end the
// command's stdout.
func TestMetricsGolden(t *testing.T) {
	if args := os.Getenv("STORAGESIM_ARGS"); args != "" {
		os.Args = append([]string{"storagesim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	for _, c := range []struct {
		name, device, util string
	}{
		{"cu140", "cu140", "0.8"},
		{"intel95", "intel", "0.95"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestMetricsGolden$")
			cmd.Env = append(os.Environ(), "STORAGESIM_ARGS=-device\n"+c.device+"\n-utilization\n"+c.util+"\n-metrics")
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("storagesim -device %s: %v", c.device, err)
			}
			checkGolden(t, "metrics_"+c.name+".txt", stdout)

			tr, _, err := buildTrace("", "mac", 1, "")
			if err != nil {
				t.Fatal(err)
			}
			util, _ := strconv.ParseFloat(c.util, 64)
			cfg := core.Config{Trace: tr, SpinDown: fleet.DefaultSpinDown, CleaningPolicy: "greedy", FlashUtilization: util}
			if err := fleet.SelectDevice(&cfg, c.device, ""); err != nil {
				t.Fatal(err)
			}
			fleet.SizeBuffers(&cfg, -1, -1)
			reg := obs.NewRegistry()
			cfg.Scope = obs.NewScope(reg, nil)
			if _, err := core.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(stdout, []byte(reg.String())) {
				t.Errorf("in-process registry dump\n%s\ndoes not end the command's stdout\n%s", reg.String(), stdout)
			}
			var prom bytes.Buffer
			if err := obs.WritePrometheus(&prom, reg, promNamespace); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "prom_"+c.name+".txt", prom.Bytes())
		})
	}
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestReadTraceBothFormats: -tracefile loads a trace written in either the
// text or the binary format, and a missing file errors.
func TestReadTraceBothFormats(t *testing.T) {
	tr, err := workload.Synth(workload.SynthConfig{Seed: 1, Ops: 100})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name   string
		encode func(f *os.File) error
	}{
		{"t.trace", func(f *os.File) error { return trace.Encode(f, tr) }},
		{"t.btrace", func(f *os.File) error { return trace.EncodeBinary(f, tr) }},
	} {
		path := filepath.Join(dir, c.name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.encode(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, st, err := buildTrace(path, "synth", 1, "")
		if err != nil {
			t.Fatalf("buildTrace(%s): %v", c.name, err)
		}
		if st != nil {
			t.Errorf("%s: index stats %+v for a trace file", c.name, st)
		}
		if len(got.Records) != len(tr.Records) {
			t.Errorf("%s: %d records, want %d", c.name, len(got.Records), len(tr.Records))
		}
		if got.BlockSize != 512*units.B {
			t.Errorf("%s: block size %v", c.name, got.BlockSize)
		}
	}

	if _, _, err := buildTrace(filepath.Join(dir, "missing"), "synth", 1, ""); err == nil {
		t.Error("missing file accepted")
	}
}

// TestBuildTraceIndexWorkloads covers the index-btree/index-lsm trace
// names: both engines generate a valid trace plus stats, unknown engines
// fail, and the classic names still route to the workload generator.
func TestBuildTraceIndexWorkloads(t *testing.T) {
	for _, name := range []string{"index-btree", "index-lsm"} {
		tr, st, err := buildTrace("", name, 1, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: invalid trace: %v", name, err)
		}
		if st == nil || st.WriteAmplification() <= 1 {
			t.Fatalf("%s: stats %+v", name, st)
		}
		if tr.Name != name {
			t.Errorf("%s: trace named %q", name, tr.Name)
		}
	}
	if _, _, err := buildTrace("", "index-btrie", 1, ""); err == nil {
		t.Error("unknown index engine accepted")
	}
	if tr, st, err := buildTrace("", "synth", 1, ""); err != nil || st != nil || tr == nil {
		t.Errorf("synth: tr=%v st=%v err=%v", tr, st, err)
	}

	// The -mix flag routes through MixByName: read-heavy reshapes the index
	// trace, unknown mixes fail, and non-index traces reject a mix.
	tr, _, err := buildTrace("", "index-btree", 1, "read-heavy")
	if err != nil || tr == nil {
		t.Fatalf("read-heavy mix: tr=%v err=%v", tr, err)
	}
	if _, _, err := buildTrace("", "index-btree", 1, "write-mostly"); err == nil {
		t.Error("unknown mix accepted")
	}
	if _, _, err := buildTrace("", "synth", 1, "read-heavy"); err == nil {
		t.Error("mix on a non-index trace accepted")
	}
}

// TestHostileTraceFileExits runs the command on a trace whose one block
// sits at offset 2^40, which a flash disk would size gigabytes of state
// for: it must exit 1 with core's footprint-bound message. The test
// re-executes its own binary, whose child branch runs main with the
// newline-separated arguments in STORAGESIM_ARGS.
func TestHostileTraceFileExits(t *testing.T) {
	if args := os.Getenv("STORAGESIM_ARGS"); args != "" {
		os.Args = append([]string{"storagesim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	path := filepath.Join(t.TempDir(), "evil.trace")
	if err := os.WriteFile(path, []byte("trace evil blocksize=1024\n0 w 1 1099511627776 100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestHostileTraceFileExits$")
	cmd.Env = append(os.Environ(), "STORAGESIM_ARGS=-device\nsdp5\n-tracefile\n"+path)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1; output:\n%s", err, out)
	}
	if want := "storagesim: core: trace footprint 1024GB exceeds the 1GB bound (core.MaxFootprint)"; !strings.Contains(string(out), want) {
		t.Errorf("output %q does not contain %q", out, want)
	}
}

// TestFlashSizeFlagsExit runs the command with flash sizes it must refuse:
// an explicit capacity whose byte count overflows int64 (it used to wrap
// negative and fall back to the default utilization), a negative stored
// amount, and capacities past core.MaxCapacity from -capacity and -stored.
// Each must exit 1 with its message before replaying. The child branch
// re-executes main as TestHostileTraceFileExits does.
func TestFlashSizeFlagsExit(t *testing.T) {
	if args := os.Getenv("STORAGESIM_ARGS"); args != "" {
		os.Args = append([]string{"storagesim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	for _, c := range []struct{ args, want string }{
		{"-device\nsdp5\n-capacity\n8796093022208", "storagesim: -capacity 8796093022208 MB out of range [0, 8796093022207]"},
		{"-device\nsdp5\n-stored\n-1", "storagesim: -stored -1 MB out of range [0, 8796093022207]"},
		{"-device\nintel\n-capacity\n200000", "storagesim: core: flash capacity 195.3GB exceeds the 4GB bound (core.MaxCapacity)"},
		{"-device\nsdp5\n-stored\n200000", "storagesim: core: flash capacity for 195.3GB of stored data at 80% utilization exceeds the 4GB bound (core.MaxCapacity)"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFlashSizeFlagsExit$")
		cmd.Env = append(os.Environ(), "STORAGESIM_ARGS=-trace\nsynth\n"+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%q: exit %v, want status 1; output:\n%s", c.args, err, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%q: output %q does not contain %q", c.args, out, c.want)
		}
	}
}

// TestMemberFaultsBeyondArrayExit: a -member-faults plan for a member the
// -array topology lacks exits 1 naming the key and the member count,
// instead of running without the plan.
func TestMemberFaultsBeyondArrayExit(t *testing.T) {
	if args := os.Getenv("STORAGESIM_ARGS"); args != "" {
		os.Args = append([]string{"storagesim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	plans := filepath.Join(t.TempDir(), "members.json")
	if err := os.WriteFile(plans, []byte(`{"m5":{"die_at_us":1000}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMemberFaultsBeyondArrayExit$")
	cmd.Env = append(os.Environ(), "STORAGESIM_ARGS=-trace\nsynth\n-array\nmirror:2xflashcard\n-member-faults\n"+plans)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1; output:\n%s", err, out)
	}
	if want := `storagesim: fault: plan-set key "m5" names a member the array does not have: it has 2 (m0 to m1)`; !strings.Contains(string(out), want) {
		t.Errorf("output %q does not contain %q", out, want)
	}
}

// TestPrintResultPrecision: the response-time rows print every number at
// one precision, so with sub-0.05 ms responses a max never reads below its
// mean and the percentile bounds never read out of order.
func TestPrintResultPrecision(t *testing.T) {
	res := &core.Result{
		TraceName: "t", Device: "d",
		ReadHist: stats.NewLatencyHistogram(), WriteHist: stats.NewLatencyHistogram(),
	}
	for _, ms := range []float64{0.02, 0.04} {
		res.Read.Add(ms)
		res.ReadHist.Add(ms)
		res.Write.Add(ms)
		res.WriteHist.Add(ms)
	}
	var out bytes.Buffer
	printResult(&out, res, true)

	// rows maps "read mean", "read p50/p95/p99", ... to the row's numbers.
	rows := make(map[string][]float64)
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || (f[0] != "read" && f[0] != "write") {
			continue
		}
		var nums []float64
		for _, w := range f[2:] {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(w, ","), 64); err == nil {
				nums = append(nums, v)
			}
		}
		rows[f[0]+" "+f[1]] = nums
	}
	for _, op := range []string{"read", "write"} {
		mean := rows[op+" mean"] // mean, max, σ
		if len(mean) != 3 {
			t.Fatalf("%s mean row: numbers %v in\n%s", op, mean, out.String())
		}
		if mean[1] < mean[0] {
			t.Errorf("%s: max %v below mean %v", op, mean[1], mean[0])
		}
		p := rows[op+" p50/p95/p99"]
		if len(p) != 3 {
			t.Fatalf("%s percentile row: numbers %v in\n%s", op, p, out.String())
		}
		if p[0] > p[1] || p[1] > p[2] {
			t.Errorf("%s: p50/p95/p99 %v out of order", op, p)
		}
	}
}
