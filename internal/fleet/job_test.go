package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"mobilestorage/internal/core"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

func TestExpandDefaults(t *testing.T) {
	ej, err := expand(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ej.runs) != 1 {
		t.Fatalf("empty spec expanded to %d runs, want 1", len(ej.runs))
	}
	rs := ej.runs[0]
	if rs.Device != "cu140" || rs.Trace != "synth" || rs.Utilization != 0.8 ||
		rs.Cleaning != "greedy" || rs.DRAMKB != -1 || rs.SRAMKB != -1 ||
		rs.SpinDownS != 5 || rs.Plan != -1 || rs.Replica != 0 {
		t.Errorf("default run: %+v", rs)
	}
	if rs.Seed == 0 || rs.FaultSeed == 0 {
		t.Errorf("derived seeds must be non-zero: %+v", rs)
	}
}

func TestExpandGridOrderAndSeeds(t *testing.T) {
	ej, err := expand(Spec{
		Devices:      []string{"cu140", "sdp10"},
		Utilizations: []float64{0.5, 0.9},
		Replicas:     3,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ej.runs) != 12 {
		t.Fatalf("%d runs, want 12 (2 devices × 2 utilizations × 3 replicas)", len(ej.runs))
	}
	// Replicas iterate outermost: the first 4 runs are replica 0, sharing
	// one workload seed; the next 4 are replica 1 with a different seed.
	for i, rs := range ej.runs {
		if want := i / 4; rs.Replica != want {
			t.Errorf("run %d: replica %d, want %d", i, rs.Replica, want)
		}
		if rs.Index != i {
			t.Errorf("run %d: index %d", i, rs.Index)
		}
	}
	if ej.runs[0].Seed != ej.runs[3].Seed {
		t.Error("runs within a replica must share a workload seed")
	}
	if ej.runs[0].Seed == ej.runs[4].Seed {
		t.Error("different replicas must get different workload seeds")
	}
	// Fault seeds are per-run streams, distinct from workload seeds.
	seen := map[int64]bool{}
	for _, rs := range ej.runs {
		if seen[rs.FaultSeed] {
			t.Fatalf("duplicate fault seed %d", rs.FaultSeed)
		}
		seen[rs.FaultSeed] = true
	}
	// Same spec, same grid: expansion is deterministic.
	ej2, err := expand(Spec{
		Devices:      []string{"cu140", "sdp10"},
		Utilizations: []float64{0.5, 0.9},
		Replicas:     3,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(ej.runs)
	b, _ := json.Marshal(ej2.runs)
	if string(a) != string(b) {
		t.Error("expansion is not deterministic")
	}
}

func TestExpandValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"bad device", Spec{Devices: []string{"floppy"}}, "unknown device"},
		{"bad trace", Spec{Traces: []string{"win95"}}, "unknown trace"},
		{"bad utilization", Spec{Utilizations: []float64{1.5}}, "utilization"},
		{"negative spindown", Spec{SpinDownS: []float64{-1}}, "spin-down"},
		{"negative ops", Spec{SynthOps: -5}, "synth_ops"},
		{"too many ops", Spec{SynthOps: workload.MaxSynthOps + 1}, "synth_ops"},
		{"too many workers", Spec{Workers: maxWorkers + 1}, "workers"},
		{"negative sample", Spec{SampleEveryS: -1}, "sample_every_s"},
		{"bad fault plan", Spec{FaultPlans: []json.RawMessage{json.RawMessage(`{"nope`)}}, "fault_plans[0]"},
		{"grid too big", Spec{Replicas: maxRuns + 1}, "limit"},
		// A replica count chosen so the naive 9-factor int product wraps to a
		// tiny positive total (4 devices × (2^62+1) ≡ 4 mod 2^64) must still
		// be rejected, not expanded for ~4.6e18 iterations.
		{"overflowing grid", Spec{
			Replicas: 4611686018427387905,
			Devices:  []string{"cu140", "cu140", "cu140", "cu140"},
		}, "limit"},
		{"overflowing axes", Spec{
			Replicas:     maxRuns,
			Devices:      []string{"cu140", "cu140"},
			Utilizations: []float64{0.5, 0.8},
		}, "expands"},
	}
	for _, c := range cases {
		_, err := expand(c.spec)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestBuildConfigDefaults(t *testing.T) {
	ej, err := expand(Spec{Devices: []string{"cu140", "intel"}})
	if err != nil {
		t.Fatal(err)
	}

	// Disk: default DRAM 2 MB and SRAM 32 KB, mirroring the CLI.
	diskRun := ej.runs[0]
	cfg, err := ej.buildConfig(diskRun, &trace.Trace{Name: "synth"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != core.MagneticDisk {
		t.Errorf("kind %v", cfg.Kind)
	}
	if cfg.DRAMBytes != 2*units.MB {
		t.Errorf("disk DRAM = %d, want 2 MB", cfg.DRAMBytes)
	}
	if cfg.SRAMBytes != 32*units.KB {
		t.Errorf("disk SRAM = %d, want 32 KB", cfg.SRAMBytes)
	}

	// Flash card: no SRAM by default.
	cardRun := ej.runs[1]
	cfg, err = ej.buildConfig(cardRun, &trace.Trace{Name: "synth"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != core.FlashCard {
		t.Errorf("kind %v", cfg.Kind)
	}
	if cfg.SRAMBytes != 0 {
		t.Errorf("card SRAM = %d, want 0", cfg.SRAMBytes)
	}

	// The hp trace runs uncached (§4.1), like the CLI default.
	cfg, err = ej.buildConfig(diskRun, &trace.Trace{Name: "hp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DRAMBytes != 0 {
		t.Errorf("hp DRAM = %d, want 0", cfg.DRAMBytes)
	}
}

func TestBuildConfigExplicitSizes(t *testing.T) {
	ej, err := expand(Spec{DRAMKB: []int64{64}, SRAMKB: []int64{0}})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ej.buildConfig(ej.runs[0], &trace.Trace{Name: "synth"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DRAMBytes != 64*units.KB {
		t.Errorf("DRAM = %d, want 64 KB", cfg.DRAMBytes)
	}
	if cfg.SRAMBytes != 0 {
		t.Errorf("SRAM = %d, want 0 (explicitly disabled)", cfg.SRAMBytes)
	}
}

func TestExpandFaultPlanAxis(t *testing.T) {
	plan := json.RawMessage(`{"read_error_rate": 0.001, "max_retries": 3}`)
	ej, err := expand(Spec{FaultPlans: []json.RawMessage{plan, plan}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ej.runs) != 2 {
		t.Fatalf("%d runs, want 2 (one per plan)", len(ej.runs))
	}
	if ej.runs[0].Plan != 0 || ej.runs[1].Plan != 1 {
		t.Errorf("plan indices: %d, %d", ej.runs[0].Plan, ej.runs[1].Plan)
	}
	cfg, err := ej.buildConfig(ej.runs[1], &trace.Trace{Name: "synth"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults == nil {
		t.Error("fault plan not wired into config")
	}
	if cfg.FaultSeed != ej.runs[1].FaultSeed {
		t.Error("fault seed not wired into config")
	}
}

// leastAlloc calls f up to n times and returns the fewest heap bytes one
// call allocated, stopping early at a call within bound.
// runtime.MemStats.TotalAlloc is process-wide, so one reading also counts
// whatever another goroutine allocated meanwhile; the least of several is
// f's own.
func leastAlloc(n int, bound uint64, f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range n {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if least = min(least, after.TotalAlloc-before.TotalAlloc); least <= bound {
			break
		}
	}
	return least
}

// FuzzJobSpec feeds hostile POST /jobs bodies through the submit path up to
// the run grid: decode as handleSubmit does, validate, and materialize
// grids of at most maxFuzzRuns. validate sizes the grid from replicas and
// the axis lengths without allocating for it, so its allocation must stay
// within a bound on the input length, whatever run count the spec claims.
func FuzzJobSpec(f *testing.F) {
	const maxFuzzRuns = 4096
	for _, seed := range []string{
		`{}`,
		`{"devices":["cu140","sdp5a","intel"],"traces":["synth","mac"],"utilizations":[0.4,0.95],"replicas":3}`,
		`{"devices":["kh","intel2+"],"source":"datasheet","dram_kb":[-1,0,64],"sram_kb":[-1,32],"spindown_s":[0,5]}`,
		`{"replicas":999999,"seed":-7}`,
		`{"replicas":1000000,"devices":["intel","sdp10"]}`,
		`{"fault_plans":[{"read_error_rate":0.001,"max_retries":3},{"write_error_rate":0.01}],"cleaning":["greedy","fifo"]}`,
		`{"devices":["sdp5a"],"source":"measured"}`,
		`{"workers":-1}`,
		`{"bogus":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxSpecBytes {
			return
		}
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}

		var v *validated
		var err error
		bound := uint64(64*len(data) + 64<<10)
		if alloc := leastAlloc(3, bound, func() { v, err = validate(spec) }); alloc > bound {
			t.Fatalf("validate allocated %d bytes for a %d-byte spec (bound %d)", alloc, len(data), bound)
		}
		if err != nil {
			return
		}
		if v.total < 1 || v.total > maxRuns {
			t.Fatalf("validated grid of %d runs", v.total)
		}
		if v.total > maxFuzzRuns {
			return
		}
		ej := v.materialize()
		if len(ej.runs) != v.total {
			t.Fatalf("materialized %d runs, validate sized %d", len(ej.runs), v.total)
		}
		for i, rs := range ej.runs {
			if rs.Index != i {
				t.Fatalf("run %d has index %d", i, rs.Index)
			}
			var cfg core.Config
			if err := SelectDevice(&cfg, rs.Device, ej.spec.Source); err != nil {
				t.Fatalf("run %d: device does not resolve: %v", i, err)
			}
		}
	})
}
