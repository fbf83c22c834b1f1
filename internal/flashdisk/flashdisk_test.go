package flashdisk

import (
	"math"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

func params() device.FlashDiskParams { return device.SDP5Datasheet() }

func wr(at units.Time, size units.Bytes) device.Request {
	return device.Request{Time: at, Op: trace.Write, File: 1, Addr: 0, Size: size}
}

func rd(at units.Time, size units.Bytes) device.Request {
	return device.Request{Time: at, Op: trace.Read, File: 1, Addr: 0, Size: size}
}

func TestSyncWriteTime(t *testing.T) {
	f, err := New(params(), 10*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	// Coupled erase+write: 75 KB at 75 KB/s = 1 s, plus 1 ms latency.
	done := f.Access(wr(0, 75*units.KB))
	want := units.Second + units.Millisecond
	if math.Abs(float64(done-want)) > 1000 {
		t.Errorf("sync write completion = %v, want ≈%v", done, want)
	}
}

func TestReadTime(t *testing.T) {
	f, _ := New(params(), 10*units.MB)
	// 800 KB/s reads: 80 KB in 100 ms + 1 ms latency.
	done := f.Access(rd(0, 80*units.KB))
	want := 101 * units.Millisecond
	if math.Abs(float64(done-want)) > 1000 {
		t.Errorf("read completion = %v, want ≈%v", done, want)
	}
}

func TestAsyncFastPath(t *testing.T) {
	f, err := New(params(), 10*units.MB, WithAsyncErase())
	if err != nil {
		t.Fatal(err)
	}
	if f.preErased == 0 {
		t.Fatal("async disk shipped with no pre-erased spares")
	}
	// A small write into pre-erased sectors runs at 400 KB/s.
	done := f.Access(wr(0, 4*units.KB))
	want := units.Millisecond + units.TransferTime(4*units.KB, 400)
	if math.Abs(float64(done-want)) > 1000 {
		t.Errorf("async write completion = %v, want ≈%v", done, want)
	}
}

func TestAsyncPoolDepletion(t *testing.T) {
	f, _ := New(params(), 10*units.MB, WithAsyncErase())
	pool := f.preErased
	// One write bigger than the pool: the shortfall pays erase+write.
	size := units.Bytes(pool+100) * 512
	done := f.Access(wr(0, size))
	fastOnly := units.Millisecond + units.TransferTime(size, 400)
	if done <= fastOnly {
		t.Errorf("oversized write (%v) did not pay synchronous erasure", done)
	}
	if f.preErased != 0 {
		t.Errorf("pool not depleted: %d", f.preErased)
	}
}

func TestAsyncBackgroundReplenish(t *testing.T) {
	f, _ := New(params(), 10*units.MB, WithAsyncErase())
	pool := f.preErased
	size := units.Bytes(pool) * 512
	done := f.Access(wr(0, size)) // exactly drains the pool
	if f.preErased != 0 {
		t.Fatalf("pool = %d after draining write", f.preErased)
	}
	// Idle long enough to erase everything stale: pool*512B at 150 KB/s.
	need := units.TransferTime(size, 150)
	f.Idle(done + need + units.Second)
	if f.preErased != pool {
		t.Errorf("pool = %d after idle, want %d", f.preErased, pool)
	}
	if j := f.Meter().StateJ(energy.StateErase); j <= 0 {
		t.Error("background erasure charged no energy")
	}
}

func TestAsyncPartialIdleProgress(t *testing.T) {
	f, _ := New(params(), 10*units.MB, WithAsyncErase())
	pool := f.preErased
	done := f.Access(wr(0, units.Bytes(pool)*512))
	// Give the eraser only enough time for half the sectors.
	half := units.TransferTime(units.Bytes(pool)*512, 150) / 2
	f.Idle(done + half)
	got := f.preErased
	if got < pool/2-2 || got > pool/2+2 {
		t.Errorf("pool = %d after half the erase time, want ≈%d", got, pool/2)
	}
}

func TestAsyncRequiresCapableDevice(t *testing.T) {
	if _, err := New(device.SDP10Datasheet(), 10*units.MB, WithAsyncErase()); err == nil {
		t.Error("sdp10 accepted async erase")
	}
}

func TestUtilizationIndependence(t *testing.T) {
	// §5.2: the flash disk is immune to storage utilization — write time
	// does not depend on how full the disk is. Emulate by writing after
	// varying amounts of pre-existing traffic.
	service := func(preWrites int) units.Time {
		f, _ := New(params(), 10*units.MB)
		var clock units.Time
		for i := 0; i < preWrites; i++ {
			clock = f.Access(wr(clock, 32*units.KB))
		}
		done := f.Access(wr(clock, 8*units.KB))
		return done - clock
	}
	if a, b := service(0), service(200); a != b {
		t.Errorf("write time depends on history: %v vs %v", a, b)
	}
}

func TestWearReporting(t *testing.T) {
	f, _ := New(params(), units.MB)
	f.Access(wr(0, 100*512))
	counts := f.EraseCounts()
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != 100 {
		t.Errorf("total erases = %d, want 100", sum)
	}
	// Wear-leveled: max and min differ by at most 1.
	var mn, mx int64 = counts[0], counts[0]
	for _, c := range counts {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	if mx-mn > 1 {
		t.Errorf("wear not leveled: min %d max %d", mn, mx)
	}
}

// foldWear is the fold core read off EraseCounts before Wear existed: the
// sum, the maximum and the unit count.
func foldWear(counts []int64) device.Wear {
	w := device.Wear{Units: int64(len(counts))}
	for _, c := range counts {
		w.Sum += c
		w.Max = max(w.Max, c)
	}
	return w
}

// TestWearMatchesEraseCounts checks the O(1) summary against the fold of
// the per-sector counts on both sides of every multiple of the sector
// count, where the uniform spread's remainder wraps.
func TestWearMatchesEraseCounts(t *testing.T) {
	const capacity = 64 * units.KB
	n := int64(capacity / params().SectorSize)
	for _, erases := range []int64{0, 1, n - 1, n, n + 1, 2 * n, 3*n + 5} {
		f, err := New(params(), capacity)
		if err != nil {
			t.Fatal(err)
		}
		if erases > 0 {
			f.Access(wr(0, units.Bytes(erases)*params().SectorSize))
		}
		if got := f.TotalErases(); got != erases {
			t.Fatalf("drove %d erases, device counts %d", erases, got)
		}
		if got, want := f.Wear(), foldWear(f.EraseCounts()); got != want {
			t.Errorf("%d erases over %d sectors: Wear() = %+v, fold of EraseCounts = %+v", erases, n, got, want)
		}
	}
}

func TestDeleteIsFree(t *testing.T) {
	f, _ := New(params(), units.MB)
	if done := f.Access(device.Request{Time: 7, Op: trace.Delete, Size: units.KB}); done != 7 {
		t.Errorf("delete completion = %v", done)
	}
}

func TestQueueing(t *testing.T) {
	f, _ := New(params(), 10*units.MB)
	first := f.Access(wr(0, 75*units.KB)) // ~1 s
	second := f.Access(rd(first/2, units.KB))
	if second <= first {
		t.Error("read did not queue behind the long write")
	}
}

func TestStandbyEnergy(t *testing.T) {
	f, _ := New(params(), units.MB)
	f.Finish(1000 * units.Second)
	want := 1000 * params().StandbyW
	if got := f.Meter().TotalJ(); math.Abs(got-want) > 0.01 {
		t.Errorf("standby energy = %g J, want %g", got, want)
	}
}

func TestCapacityValidation(t *testing.T) {
	if _, err := New(params(), 100); err == nil {
		t.Error("sub-sector capacity accepted")
	}
	p := params()
	p.ReadKBs = 0
	if _, err := New(p, units.MB); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestNames(t *testing.T) {
	f, _ := New(params(), units.MB)
	if f.Name() != "sdp5-datasheet" {
		t.Errorf("Name = %q", f.Name())
	}
	fa, _ := New(params(), units.MB, WithAsyncErase())
	if fa.Name() != "sdp5-datasheet-async" {
		t.Errorf("async Name = %q", fa.Name())
	}
}
