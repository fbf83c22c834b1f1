package flashdisk

import (
	"math"
	"testing"

	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/units"
)

// TestWriteRetryChargesWearPerAttempt pins the satellite fix on the flash
// disk: every failed-then-retried program attempt repeats the whole coupled
// erase+write — time, energy, AND erasures — so retries age the media.
func TestWriteRetryChargesWearPerAttempt(t *testing.T) {
	base, _ := New(params(), 10*units.MB)
	baseDone := base.Access(wr(0, 2*units.KB))
	baseErases := base.TotalErases()
	baseActiveJ := base.Meter().StateJ(energy.StateActive)
	if baseErases == 0 {
		t.Fatal("baseline coupled write performed no erasures")
	}

	in := fault.NewInjector(&fault.Plan{
		WriteErrorRate: 1, MaxRetries: 1, BackoffUs: 500,
	}, 1, nil)
	f, err := New(params(), 10*units.MB, WithFaults(in))
	if err != nil {
		t.Fatal(err)
	}
	done := f.Access(wr(0, 2*units.KB))

	const attempts, backoffUs = 2, 500
	if want := baseDone*attempts + backoffUs; done != want {
		t.Errorf("retried write completion = %v, want %v", done, want)
	}
	if got := f.TotalErases(); got != attempts*baseErases {
		t.Errorf("retried write erased %d sectors, want %d (wear per physical attempt)",
			got, attempts*baseErases)
	}
	if got := f.Meter().StateJ(energy.StateActive); math.Abs(got-attempts*baseActiveJ) > 1e-12 {
		t.Errorf("active energy = %g J, want %d × %g J", got, attempts, baseActiveJ)
	}
	rep := in.Report()
	if rep.WriteFaults != attempts || rep.Retries != 1 || rep.Exhausted != 1 {
		t.Errorf("report = %+v, want 2 faults / 1 retry / 1 exhausted", rep)
	}
}

// TestWearOutShrinksSparePool drives the flash disk past its wear-out
// threshold and verifies the uniform-wear retirement: one sector dies per
// WearOutEvery total erasures, each death shrinking the async spare pool
// (capacity degradation) until only the structural floor remains.
func TestWearOutShrinksSparePool(t *testing.T) {
	in := fault.NewInjector(&fault.Plan{WearOutAfter: 4}, 1, nil)
	f, err := New(params(), 10*units.MB, WithAsyncErase(), WithFaults(in))
	if err != nil {
		t.Fatal(err)
	}
	pool := f.spareTotal
	at := units.Time(0)
	for i := 0; i < 40; i++ {
		at = f.Access(wr(at, 2*units.KB)) + units.Second
		f.Idle(at) // background eraser refills the pool, adding erasures
	}
	if f.deadSectors != f.TotalErases()/4 {
		t.Errorf("dead sectors = %d, want totalErases/4 = %d", f.deadSectors, f.TotalErases()/4)
	}
	if f.deadSectors == 0 {
		t.Fatal("workload never crossed the wear-out threshold")
	}
	if f.spareTotal >= pool {
		t.Errorf("spare pool did not shrink: %d → %d", pool, f.spareTotal)
	}
	if f.preErased+f.stale > f.spareTotal {
		t.Errorf("pool bookkeeping inconsistent: preErased=%d stale=%d spareTotal=%d",
			f.preErased, f.stale, f.spareTotal)
	}
	rep := in.Report()
	if rep.Remaps == 0 {
		t.Error("no remaps recorded")
	}
	if rep.Remaps+rep.SparesExhausted != f.deadSectors {
		t.Errorf("remaps (%d) + spares exhausted (%d) != dead sectors (%d)",
			rep.Remaps, rep.SparesExhausted, f.deadSectors)
	}
}

// TestCrashDropsEraseProgress pins flash-disk crash semantics: in-flight
// background-erase progress is volatile and lost; the pools stay consistent
// and recovery reports no violations.
func TestCrashDropsEraseProgress(t *testing.T) {
	in := fault.NewInjector(&fault.Plan{PowerFailAtUs: []int64{1}}, 1, nil)
	f, err := New(params(), 10*units.MB, WithAsyncErase(), WithFaults(in))
	if err != nil {
		t.Fatal(err)
	}
	done := f.Access(wr(0, units.Bytes(f.spareTotal)*f.p.SectorSize))
	// Let the background eraser make partial progress on one sector.
	f.Idle(done + units.Millisecond)
	f.Crash(done + units.Millisecond)
	if f.eraseProgress != 0 {
		t.Error("partial erase progress survived the crash")
	}
	f.Recover(done + units.Millisecond)
	if v := in.Report().Violations; len(v) != 0 {
		t.Errorf("recovery violations: %v", v)
	}
}
