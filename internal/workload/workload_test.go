package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestGeometricMean(t *testing.T) {
	g := NewRNG(1)
	const n = 200000
	for _, mean := range []float64{1.0, 1.3, 3.8, 6.2} {
		var sum float64
		for i := 0; i < n; i++ {
			v := g.Geometric(mean)
			if v < 1 {
				t.Fatalf("Geometric(%g) returned %d < 1", mean, v)
			}
			sum += float64(v)
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.03 {
			t.Errorf("Geometric(%g) sample mean = %g", mean, got)
		}
	}
}

func TestLogNormalishMean(t *testing.T) {
	g := NewRNG(2)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := g.LogNormalish(24*1024, 1.2)
		if v <= 0 {
			t.Fatal("LogNormalish returned non-positive")
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-24*1024)/(24*1024) > 0.05 {
		t.Errorf("LogNormalish mean = %g, want ≈ 24576", got)
	}
}

func TestMixtureValidate(t *testing.T) {
	good := Mixture{Components: []Component{
		{Weight: 0.9, Kind: ExpComponent, Mean: 0.01},
		{Weight: 0.1, Kind: UniformComponent, Mean: 1},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("good mixture rejected: %v", err)
	}
	bad := []Mixture{
		{}, // empty
		{Components: []Component{{Weight: 0.5, Mean: 1}}},                      // weights don't sum to 1
		{Components: []Component{{Weight: 1, Mean: -1}}},                       // negative mean
		{Components: []Component{{Weight: -1, Mean: 1}, {Weight: 2, Mean: 1}}}, // negative weight
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad mixture %d accepted", i)
		}
	}
}

func TestMixtureDrawStats(t *testing.T) {
	m := Mixture{Components: []Component{
		{Weight: 0.90, Kind: UniformComponent, Mean: 0.010},
		{Weight: 0.10, Kind: ExpComponent, Mean: 3.0, Shift: 0.020},
	}}
	g := NewRNG(3)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		d := m.Draw(g)
		if d < 0 {
			t.Fatal("negative inter-arrival")
		}
		sum += d.Seconds()
	}
	want := m.Mean()
	got := sum / n
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("mixture sample mean = %g, analytic %g", got, want)
	}
}

func TestMixtureCap(t *testing.T) {
	m := Mixture{Components: []Component{{Weight: 1, Kind: ExpComponent, Mean: 100, Cap: 5}}}
	g := NewRNG(4)
	for i := 0; i < 10000; i++ {
		if d := m.Draw(g); d > units.FromSeconds(5) {
			t.Fatalf("draw %v exceeded cap", d)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Mac(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Mac(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Error("same seed produced different traces")
	}
	c, err := Generate(Mac(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Records, c.Records) {
		t.Error("different seeds produced identical traces")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Mac(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("mac preset invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.BlockSize = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.NumFiles = 0 },
		func(c *Config) { c.MeanFileSize = 1 },
		func(c *Config) { c.ReadFraction = 1.5 },
		func(c *Config) { c.DeleteFraction = 0.9 },
		func(c *Config) { c.MeanReadBlocks = 0.5 },
		func(c *Config) { c.HotFileFraction = 0 },
		func(c *Config) { c.HotAccessFraction = -0.1 },
		func(c *Config) { c.SequentialFraction = 2 },
		func(c *Config) { c.ReadRecentFraction = -1 },
		func(c *Config) { c.WriteBurstStickiness = 2 },
		func(c *Config) { c.InterArrival = Mixture{} },
	}
	for i, mut := range mutations {
		cfg := Mac(1)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestPresetCharacteristics checks each preset lands near its Table 3
// calibration targets. Tolerances are deliberately loose: the generators
// are stochastic fits, and EXPERIMENTS.md records the exact values.
func TestPresetCharacteristics(t *testing.T) {
	targets := []struct {
		name            string
		distinctKB      float64
		fracReads       float64
		blockSize       units.Bytes
		readBlks        float64
		writeBlks       float64
		iaMean          float64
		duration        units.Time
		allowDeletes    bool
		distinctRelTol  float64
		fracReadsAbsTol float64
	}{
		{"mac", 22000, 0.50, 1024, 1.3, 1.2, 0.078, units.FromSeconds(3.5 * 3600), false, 0.35, 0.05},
		{"dos", 16300, 0.24, 512, 3.8, 3.4, 0.528, units.FromSeconds(1.5 * 3600), true, 0.35, 0.06},
		{"hp", 32000, 0.38, 1024, 4.3, 6.2, 11.1, units.FromSeconds(4.4 * 24 * 3600), false, 0.35, 0.06},
	}
	for _, tgt := range targets {
		tr, err := GenerateByName(tgt.name, 1)
		if err != nil {
			t.Fatalf("%s: %v", tgt.name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: invalid trace: %v", tgt.name, err)
		}
		c := trace.Characterize(tr, 0.1)
		if c.BlockSize != tgt.blockSize {
			t.Errorf("%s: block size %v, want %v", tgt.name, c.BlockSize, tgt.blockSize)
		}
		if rel := math.Abs(c.DistinctKBytes-tgt.distinctKB) / tgt.distinctKB; rel > tgt.distinctRelTol {
			t.Errorf("%s: distinct KB %.0f, target %.0f (off %.0f%%)",
				tgt.name, c.DistinctKBytes, tgt.distinctKB, rel*100)
		}
		if math.Abs(c.FractionReads-tgt.fracReads) > tgt.fracReadsAbsTol {
			t.Errorf("%s: fraction reads %.3f, target %.2f", tgt.name, c.FractionReads, tgt.fracReads)
		}
		if rel := math.Abs(c.MeanReadBlocks-tgt.readBlks) / tgt.readBlks; rel > 0.25 {
			t.Errorf("%s: mean read blocks %.2f, target %.1f", tgt.name, c.MeanReadBlocks, tgt.readBlks)
		}
		if rel := math.Abs(c.MeanWriteBlocks-tgt.writeBlks) / tgt.writeBlks; rel > 0.25 {
			t.Errorf("%s: mean write blocks %.2f, target %.1f", tgt.name, c.MeanWriteBlocks, tgt.writeBlks)
		}
		if rel := math.Abs(c.InterArrival.Mean()-tgt.iaMean) / tgt.iaMean; rel > 0.35 {
			t.Errorf("%s: inter-arrival mean %.3f, target %.3f", tgt.name, c.InterArrival.Mean(), tgt.iaMean)
		}
		if got := tr.Duration(); got > tgt.duration {
			t.Errorf("%s: duration %v exceeds configured %v", tgt.name, got, tgt.duration)
		}
		if !tgt.allowDeletes && c.Deletes > 0 {
			t.Errorf("%s: %d deletes in a no-delete trace", tgt.name, c.Deletes)
		}
		if tgt.allowDeletes && c.Deletes == 0 {
			t.Errorf("%s: expected deletions", tgt.name)
		}
	}
}

// TestGeneratorNeverReadsDeleted: reads never target a file while it is
// deleted.
func TestGeneratorNeverReadsDeleted(t *testing.T) {
	tr, err := GenerateByName("dos", 3)
	if err != nil {
		t.Fatal(err)
	}
	deleted := map[uint32]bool{}
	for i, r := range tr.Records {
		switch r.Op {
		case trace.Delete:
			deleted[r.File] = true
		case trace.Write:
			delete(deleted, r.File)
		case trace.Read:
			if deleted[r.File] {
				t.Fatalf("record %d reads deleted file %d", i, r.File)
			}
		}
	}
}

// TestGeneratorOffsetsWithinFiles: every access stays within its file's
// maximum extent and is block-aligned at the start.
func TestGeneratorOffsetsWithinFiles(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Dos(seed)
		cfg.Duration /= 20 // keep the property test quick
		tr, err := Generate(cfg)
		if err != nil {
			return false
		}
		sizes := tr.MaxFileSizes()
		for _, r := range tr.Records {
			if r.Op == trace.Delete {
				continue
			}
			if r.Offset%tr.BlockSize != 0 {
				return false
			}
			if r.End() > sizes[r.File] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := GenerateByName("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v", names)
	}
	for _, n := range names {
		if _, err := GenerateByName(n, 1); err != nil {
			t.Errorf("GenerateByName(%q): %v", n, err)
		}
	}
}

func TestFidelity(t *testing.T) {
	for _, name := range []string{"mac", "dos", "hp"} {
		tr, err := GenerateByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := PaperTargets(name)
		if err != nil {
			t.Fatal(err)
		}
		devs := Fidelity(tr, tgt)
		if len(devs) != 8 {
			t.Fatalf("%s: %d deviations, want 8", name, len(devs))
		}
		// The presets are fits: no metric drifts past 40% and block size is
		// always exact.
		if w := WorstDeviation(devs); w > 0.40 {
			t.Errorf("%s: worst deviation %.0f%%", name, w*100)
		}
		for _, d := range devs {
			if d.Metric == "block size B" && d.RelError != 0 {
				t.Errorf("%s: block size off by %.0f%%", name, d.RelError*100)
			}
			if d.RelError < 0 {
				t.Errorf("%s: negative relative error", name)
			}
		}
		out := RenderFidelity(devs)
		if !strings.Contains(out, "distinct KB") {
			t.Errorf("%s: render missing metrics:\n%s", name, out)
		}
	}
	if _, err := PaperTargets("synth"); err == nil {
		t.Error("synth has no published Table 3 targets")
	}
}

func TestTPCA(t *testing.T) {
	tr, err := TPCA(TPCAConfig{Seed: 1, Ops: 500, DataMB: 4, TPS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1000 || cap(tr.Records) != 1000 { // read+write per transaction, sized once
		t.Fatalf("%d records in a slice of cap %d, want 1000 in 1000", len(tr.Records), cap(tr.Records))
	}
	var reads, writes int
	for i := 0; i < len(tr.Records); i += 2 {
		r, w := tr.Records[i], tr.Records[i+1]
		if r.Op != trace.Read || w.Op != trace.Write {
			t.Fatalf("transaction %d ops: %v %v", i/2, r.Op, w.Op)
		}
		if r.File != w.File || r.Offset != w.Offset || r.Size != w.Size {
			t.Fatalf("transaction %d read/write mismatch", i/2)
		}
		reads++
		writes++
	}
	if reads != writes {
		t.Error("unbalanced transactions")
	}
	// Defaults apply.
	if _, err := TPCA(TPCAConfig{Seed: 1}); err != nil {
		t.Errorf("defaults: %v", err)
	}
}
