package core

import (
	"runtime"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/workload"
)

// foldCounts is the fold fillDeviceStats applied to each reporter's
// EraseCounts before device.Wear existed.
func foldCounts(counts []int64) device.Wear {
	w := device.Wear{Units: int64(len(counts))}
	for _, c := range counts {
		w.Sum += c
		w.Max = max(w.Max, c)
	}
	return w
}

// refWearStats is a frozen copy of fillDeviceStats' wear figures as they
// were computed from the per-unit counts: Result.Erases, MaxEraseCount and
// MeanEraseCount. runReference shares fillDeviceStats, so make test-diff
// cannot see a change in the wear summary; this copy is its oracle.
func refWearStats(st *stack) (erases, maxCount int64, mean float64) {
	var eraseSum, eraseUnits int64
	for _, p := range parts(st.base) {
		if c, ok := p.(device.Cleaner); ok {
			erases += c.TotalErases()
		}
		if w, ok := p.(device.WearReporter); ok {
			counts := w.EraseCounts()
			for _, c := range counts {
				eraseSum += c
				maxCount = max(maxCount, c)
			}
			eraseUnits += int64(len(counts))
		}
	}
	if eraseUnits > 0 {
		mean = float64(eraseSum) / float64(eraseUnits)
	}
	if erases == 0 {
		erases = eraseSum
	}
	return erases, maxCount, mean
}

// TestWearSummaryMatchesEraseCounts runs every stack shape and every fault
// preset (whose flash cards retire worn segments and reclaim capacity) and
// checks, after each run, that every wear reporter's summary equals the
// fold of its per-unit counts, and that the Result's wear figures equal
// the frozen fold's.
func TestWearSummaryMatchesEraseCounts(t *testing.T) {
	type row struct {
		name string
		cfg  Config
	}
	var rows []row
	for _, r := range stackRows(t) {
		rows = append(rows, row{r.name, r.cfg})
	}
	for _, p := range faultPresets(t) {
		rows = append(rows, row{p.name, p.cfg()})
	}
	var worn, retired int
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			res, st, err := run(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range parts(st.base) {
				w, ok := p.(device.WearReporter)
				if !ok {
					continue
				}
				got, want := w.Wear(), foldCounts(w.EraseCounts())
				if got != want {
					t.Errorf("%s: Wear() = %+v, fold of EraseCounts = %+v", p.Name(), got, want)
				}
				if got.Sum > 0 {
					worn++
				}
			}
			if f := res.Faults; f != nil && f.Remaps+f.SparesExhausted > 0 {
				retired++
			}
			erases, maxCount, mean := refWearStats(st)
			if res.Erases != erases || res.MaxEraseCount != maxCount || res.MeanEraseCount != mean {
				t.Errorf("Result wear (erases %d, max %d, mean %v), frozen fold (erases %d, max %d, mean %v)",
					res.Erases, res.MaxEraseCount, res.MeanEraseCount, erases, maxCount, mean)
			}
		})
	}
	if worn == 0 || retired == 0 {
		t.Errorf("%d worn reporters and %d runs that retired units: the rows no longer exercise wear", worn, retired)
	}
}

// TestMaxCapacityFlashDiskAllocation bounds the heap a short run on the
// largest flash disk allocates. The run's wear figures come from an O(1)
// summary, so nothing scales with the device's 8M sectors; building the
// per-sector counts instead allocated 64 MB.
func TestMaxCapacityFlashDiskAllocation(t *testing.T) {
	tr, err := workload.Synth(workload.SynthConfig{Seed: 1, Ops: 200})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Trace: tr, Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet(), FlashCapacity: MaxCapacity}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Erases == 0 {
		t.Fatal("the run erased nothing")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("a 200-op run on a %v flash disk allocated %d bytes, want under 1 MB", MaxCapacity, alloc)
	}
}
