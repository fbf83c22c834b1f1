package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestSweepLowestIndexError: with two failing cells, fanOut returns the
// lower index's error at any GOMAXPROCS, even when the higher cell fails
// first in time.
func TestSweepLowestIndexError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		highFailed := make(chan struct{})
		err := fanOut(8, func(i int) error {
			switch i {
			case 2:
				// With one worker per GOMAXPROCS, cell 5 runs beside this
				// one only when there is more than one worker.
				if procs > 1 {
					<-highFailed
				}
				return fmt.Errorf("cell %d", i)
			case 5:
				defer close(highFailed)
				return fmt.Errorf("cell %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 2" {
			t.Errorf("GOMAXPROCS=%d: fanOut returned %v, want cell 2", procs, err)
		}
	}
	if err := fanOut(3, func(int) error { return nil }); err != nil {
		t.Errorf("no failing cell: %v", err)
	}
	if err := fanOut(0, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("empty sweep: %v", err)
	}
}

// TestTable4Determinism is the experiment-level determinism lock: the full
// Table 4 sweep must produce bit-identical results whether the seven device
// simulations run serially or concurrently, and across repeated runs with
// the same seed. The parallel leg sets GOMAXPROCS itself, so it runs
// several workers even on a one-CPU machine.
func TestTable4Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace simulation")
	}
	const seed = 3
	run := func() []Table4Row {
		rows, err := Table4("synth", seed)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := run()
	runtime.GOMAXPROCS(4)
	parallel := run()
	again := run()

	compare := func(label string, a, b []Table4Row) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d rows", label, len(a), len(b))
		}
		for i := range a {
			ra, rb := a[i], b[i]
			if ra.Device != rb.Device {
				t.Fatalf("%s row %d: device order differs: %v vs %v", label, i, ra.Device, rb.Device)
			}
			if ra.EnergyJ != rb.EnergyJ || ra.ReadMean != rb.ReadMean || ra.WriteMean != rb.WriteMean ||
				ra.ReadMax != rb.ReadMax || ra.WriteMax != rb.WriteMax {
				t.Errorf("%s row %d (%v): results differ: %+v vs %+v", label, i, ra.Device, ra, rb)
			}
			if ra.Result.EndTime != rb.Result.EndTime || ra.Result.Erases != rb.Result.Erases ||
				ra.Result.SpinUps != rb.Result.SpinUps {
				t.Errorf("%s row %d (%v): counters differ", label, i, ra.Device)
			}
		}
	}
	compare("serial-vs-parallel", serial, parallel)
	compare("repeat", parallel, again)
}
