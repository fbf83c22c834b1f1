package core

import (
	"reflect"
	"sync"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// TestSharedPrepConcurrentRuns replays write-through, write-back and
// power-fail configs of two cache sizes from several goroutines at once
// over one TracePrep, the way fleet workers and experiment sweeps share
// one. Each result must equal the same config run alone without the prep,
// and the prep must hold one filter per geometry of the runs without power
// failures. Under -race it checks the filter memo's synchronization.
func TestSharedPrepConcurrentRuns(t *testing.T) {
	tr, err := workload.Synth(workload.SynthConfig{Seed: 3, Ops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var configs []Config
	for _, dram := range []units.Bytes{64 * units.KB, 512 * units.KB} {
		for _, writeBack := range []bool{false, true} {
			for _, plan := range []*fault.Plan{nil, {PowerFailAtUs: []int64{3_000_000}}} {
				configs = append(configs, Config{Trace: tr, DRAMBytes: dram, WriteBack: writeBack, Faults: plan,
					Kind: FlashCard, FlashCardParams: device.IntelSeries2Measured()})
			}
		}
	}
	want := make([]*Result, len(configs))
	for i, cfg := range configs {
		if want[i], err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	}

	prep := PrepareTrace(tr)
	const workers = 4
	got := make([][]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*Result, len(configs))
			// Each worker starts at a different config, so first uses of
			// one geometry race each other.
			for k := range configs {
				i := (k + w) % len(configs)
				cfg := configs[i]
				cfg.Prep = prep
				res, err := Run(cfg)
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = res
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i, res := range got[w] {
			if !reflect.DeepEqual(res, want[i]) {
				t.Errorf("worker %d, config %d (DRAM %v, write-back %v, faults %v): result differs from the unshared run",
					w, i, configs[i].DRAMBytes, configs[i].WriteBack, configs[i].Faults != nil)
			}
		}
	}
	if n := len(prep.filters); n != 4 {
		t.Errorf("prep holds %d filters, want one per geometry without power failures (4)", n)
	}
}
