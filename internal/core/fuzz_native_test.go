package core

import (
	"math"
	"math/rand"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/units"
)

// FuzzRun is the native fuzz target over the whole simulator: a seed drives
// the adversarial trace generator, kind and knobs select the architecture
// and its configuration corners. The target asserts the simulator's physical
// invariants; any panic or violation is a finding. Corpus seeds live under
// testdata/fuzz/FuzzRun; run with
//
//	go test ./internal/core -run='^$' -fuzz=FuzzRun -fuzztime=30s
func FuzzRun(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3))
	f.Add(int64(3), uint8(2), uint8(5))
	f.Add(int64(4), uint8(3), uint8(7))
	f.Add(int64(99), uint8(2), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, kind, knobs uint8) {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 300)
		if err := tr.Validate(); err != nil {
			t.Skip() // generator contract violation, not a simulator bug
		}
		cfg := Config{Trace: tr}
		if knobs&1 != 0 {
			cfg.DRAMBytes = 64 * units.KB
		}
		if knobs&2 != 0 {
			cfg.WriteBack = true
		}
		switch kind % 4 {
		case 0:
			cfg.Kind = MagneticDisk
			cfg.Disk = device.CU140Datasheet()
			cfg.SpinDown = units.Time(knobs>>2) * units.Second
			if knobs&4 != 0 {
				cfg.SRAMBytes = 8 * units.KB
			}
		case 1:
			cfg.Kind = FlashDisk
			cfg.FlashDiskParams = device.SDP5Datasheet()
			cfg.AsyncErase = knobs&4 != 0
		case 2:
			cfg.Kind = FlashCard
			cfg.FlashCardParams = device.IntelSeries2Datasheet()
			cfg.OnDemandCleaning = knobs&4 != 0
			cfg.CleaningPolicy = []string{"greedy", "cost-benefit", "fifo"}[int(knobs>>3)%3]
			if knobs&64 != 0 {
				cfg.WearLeveling = 4
			}
		case 3:
			cfg.Kind = FlashCache
			cfg.Disk = device.CU140Datasheet()
			cfg.SpinDown = 5 * units.Second
			cfg.FlashCardParams = device.IntelSeries2Datasheet()
			cfg.FlashCacheBytes = 256 * units.KB
		}
		res, err := Run(cfg)
		if err != nil {
			t.Skip() // config rejected by validation, not a crash
		}
		if res.EnergyJ < 0 || math.IsNaN(res.EnergyJ) || math.IsInf(res.EnergyJ, 0) {
			t.Fatalf("bad energy %g", res.EnergyJ)
		}
		for _, v := range []float64{res.Read.Mean(), res.Read.Max(), res.Write.Mean(), res.Write.Max()} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("bad response time %g", v)
			}
		}
		if res.WriteAmplification() < 1 {
			t.Fatalf("write amplification %g < 1", res.WriteAmplification())
		}
		if res.EndTime < 0 {
			t.Fatalf("negative end time %v", res.EndTime)
		}
	})
}
