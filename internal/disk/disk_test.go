package disk

import (
	"math"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// testParams is a round-number disk for exact arithmetic: 10 ms access,
// 1024 KB/s transfer, 1 s spin-up; 2 W active, 1 W idle, 4 W spin-up,
// 0.1 W sleeping.
func testParams() device.DiskParams {
	return device.DiskParams{
		Name:          "test",
		Source:        device.Datasheet,
		AccessLatency: 10 * units.Millisecond,
		TransferKBs:   1024,
		SpinUpTime:    1 * units.Second,
		ActiveW:       2,
		IdleW:         1,
		SpinUpW:       4,
		SleepW:        0.1,
	}
}

func read(at units.Time, file uint32, size units.Bytes) device.Request {
	return device.Request{Time: at, Op: trace.Read, File: file, Addr: units.Bytes(file) * units.MB, Size: size}
}

func TestDiskServiceTime(t *testing.T) {
	d, err := New(testParams())
	if err != nil {
		t.Fatal(err)
	}
	// 1024 KB/s → 10 KB in 9.765625 ms ≈ 9766 µs; plus 10 ms latency.
	done := d.Access(read(0, 1, 10*units.KB))
	want := 10*units.Millisecond + 9766*units.Microsecond
	if done != want {
		t.Errorf("completion = %v, want %v", done, want)
	}
}

func TestDiskSameFileAndSequentialLatency(t *testing.T) {
	d, _ := New(testParams())
	first := d.Access(device.Request{Time: 0, Op: trace.Read, File: 1, Addr: 0, Size: units.KB})

	// Sequential continuation: 10% of the latency.
	seqStart := first
	seqDone := d.Access(device.Request{Time: seqStart, Op: trace.Read, File: 1, Addr: units.KB, Size: units.KB})
	seqService := seqDone - seqStart
	wantSeq := units.Time(float64(10*units.Millisecond)*sequentialLatencyFraction) + 977*units.Microsecond
	if math.Abs(float64(seqService-wantSeq)) > 2 {
		t.Errorf("sequential service = %v, want %v", seqService, wantSeq)
	}

	// Same file, random offset: 35%.
	rndDone := d.Access(device.Request{Time: seqDone, Op: trace.Read, File: 1, Addr: 100 * units.KB, Size: units.KB})
	rndService := rndDone - seqDone
	wantRnd := units.Time(float64(10*units.Millisecond)*sameFileLatencyFraction) + 977*units.Microsecond
	if math.Abs(float64(rndService-wantRnd)) > 2 {
		t.Errorf("same-file service = %v, want %v", rndService, wantRnd)
	}

	// Different file: full latency.
	otherDone := d.Access(device.Request{Time: rndDone, Op: trace.Read, File: 2, Addr: units.MB, Size: units.KB})
	otherService := otherDone - rndDone
	wantOther := 10*units.Millisecond + 977*units.Microsecond
	if math.Abs(float64(otherService-wantOther)) > 2 {
		t.Errorf("cross-file service = %v, want %v", otherService, wantOther)
	}
}

func TestDiskSpinDownAndUp(t *testing.T) {
	d, _ := New(testParams(), WithSpinDown(5*units.Second))
	done := d.Access(read(0, 1, units.KB))

	// Ten seconds later the disk has slept for 5 of them.
	wake := done + 10*units.Second
	if d.Spinning(wake - units.Second) {
		t.Error("disk still spinning 9s into idle with a 5s threshold")
	}
	done2 := d.Access(read(wake, 2, units.KB))
	service := done2 - wake
	if service < d.p.SpinUpTime {
		t.Errorf("access to sleeping disk took %v, less than spin-up", service)
	}
	if d.SpinUps() != 1 {
		t.Errorf("spinUps = %d, want 1", d.SpinUps())
	}

	// Energy: idle exactly 5 s at 1 W, sleep 5 s at 0.1 W, spin-up 1 s at 4 W.
	m := d.Meter()
	if j := m.StateJ(energy.StateIdle); math.Abs(j-5.0) > 0.01 {
		t.Errorf("idle energy = %g J, want 5", j)
	}
	if j := m.StateJ(energy.StateSleep); math.Abs(j-0.5) > 0.01 {
		t.Errorf("sleep energy = %g J, want 0.5", j)
	}
	if j := m.StateJ(energy.StateSpinUp); math.Abs(j-4.0) > 0.01 {
		t.Errorf("spin-up energy = %g J, want 4", j)
	}
}

func TestDiskNeverSpinsDownWithoutPolicy(t *testing.T) {
	d, _ := New(testParams()) // no spin-down
	d.Access(read(0, 1, units.KB))
	d.Finish(units.Hour)
	if d.SpinUps() != 0 {
		t.Error("spun up without ever sleeping")
	}
	// All idle energy, no sleep.
	if d.Meter().StateJ(energy.StateSleep) != 0 {
		t.Error("slept without a spin-down policy")
	}
	if !d.Spinning(units.Hour) {
		t.Error("not spinning without a spin-down policy")
	}
}

func TestDiskFirmwareSpinDownWins(t *testing.T) {
	p := testParams()
	p.FirmwareSpinDown = 2 * units.Second
	d, _ := New(p, WithSpinDown(5*units.Second))
	d.Access(read(0, 1, units.KB))
	if d.Spinning(3 * units.Second) {
		t.Error("firmware threshold (2s) not applied")
	}
	// And the firmware threshold holds even with no host policy at all.
	d2, _ := New(p)
	d2.Access(read(0, 1, units.KB))
	if d2.Spinning(3 * units.Second) {
		t.Error("firmware threshold ignored without host policy")
	}
}

func TestDiskQueueing(t *testing.T) {
	d, _ := New(testParams())
	first := d.Access(read(0, 1, 100*units.KB))
	// A request arriving mid-service queues.
	second := d.Access(read(first/2, 2, units.KB))
	if second <= first {
		t.Error("second op did not queue behind the first")
	}
	resp := second - first/2
	service := 10*units.Millisecond + 977*units.Microsecond
	wait := first - first/2
	if math.Abs(float64(resp-(wait+service))) > 2 {
		t.Errorf("queued response = %v, want wait %v + service %v", resp, wait, service)
	}
}

func TestDiskBackgroundDoesNotBlockHost(t *testing.T) {
	d, _ := New(testParams(), WithSpinDown(5*units.Second))
	// Let the disk fall asleep, then issue a long background write.
	d.Idle(10 * units.Second)
	bgDone := d.Background(device.Request{Time: 10 * units.Second, Op: trace.Write, File: 9, Addr: 0, Size: 512 * units.KB})
	if bgDone <= 11*units.Second {
		t.Fatalf("background write finished unrealistically fast: %v", bgDone)
	}
	// A host read right after the background write started waits for the
	// platters (spin-up) but NOT for the queued background data.
	hostStart := 10*units.Second + 100*units.Millisecond
	hostDone := d.Access(read(hostStart, 1, units.KB))
	spinUpDone := 11 * units.Second
	maxExpected := spinUpDone + 11*units.Millisecond + units.Millisecond
	if hostDone > maxExpected {
		t.Errorf("host read done at %v, want ≤ %v (must not queue behind background)", hostDone, maxExpected)
	}
	if hostDone < spinUpDone {
		t.Errorf("host read done at %v, before platters ready at %v", hostDone, spinUpDone)
	}
	if d.SpinUps() != 1 {
		t.Errorf("spinUps = %d, want 1 (shared between bg and host)", d.SpinUps())
	}
}

func TestDiskEnergyNoDoubleCountWithBackground(t *testing.T) {
	d, _ := New(testParams())
	// Interleave background and host work, then verify total energy is
	// bounded by (duration × max power) — a double-count would exceed it.
	var clock units.Time
	for i := 0; i < 50; i++ {
		clock += 50 * units.Millisecond
		d.Background(device.Request{Time: clock, Op: trace.Write, File: 1, Addr: 0, Size: 8 * units.KB})
		clock += 50 * units.Millisecond
		d.Access(read(clock, 2, 8*units.KB))
	}
	d.Finish(clock + units.Second)
	dur := (clock + units.Second).Seconds()
	if total := d.Meter().TotalJ(); total > dur*2*1.05 {
		t.Errorf("energy %g J exceeds %g s at max 2 W — double counting", total, dur)
	}
}

// TestDiskOpsCountsHostAccessesOnly: the disk.ops counter counts host
// accesses; background writes (SRAM buffer drains) and deletes leave it
// unchanged.
func TestDiskOpsCountsHostAccessesOnly(t *testing.T) {
	reg := obs.NewRegistry()
	d, _ := New(testParams(), WithScope(obs.NewScope(reg, nil)))
	ops := func() int64 { return reg.Counters()["disk.ops"] }
	d.Access(read(0, 1, units.KB))
	if got := ops(); got != 1 {
		t.Fatalf("disk.ops after one host read = %d, want 1", got)
	}
	d.Background(device.Request{Time: units.Second, Op: trace.Write, File: 2, Size: 8 * units.KB})
	d.Access(device.Request{Time: 2 * units.Second, Op: trace.Delete, File: 1, Size: units.KB})
	if got := ops(); got != 1 {
		t.Errorf("disk.ops after a background write and a delete = %d, want 1", got)
	}
	d.Access(read(3*units.Second, 1, units.KB))
	if got := ops(); got != 2 {
		t.Errorf("disk.ops after a second host read = %d, want 2", got)
	}
}

func TestDiskDeleteIsFree(t *testing.T) {
	d, _ := New(testParams())
	done := d.Access(device.Request{Time: 5, Op: trace.Delete, File: 1, Size: units.MB})
	if done != 5 {
		t.Errorf("delete completion = %v, want 5", done)
	}
}

func TestDiskValidatesParams(t *testing.T) {
	p := testParams()
	p.TransferKBs = 0
	if _, err := New(p); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestDiskName(t *testing.T) {
	d, _ := New(testParams())
	if d.Name() != "test-datasheet" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestSpinPolicyNames(t *testing.T) {
	if (FixedThreshold{}).Name() != "always-on" {
		t.Error("zero threshold name")
	}
	if (FixedThreshold{Threshold: 5 * units.Second}).Name() != "fixed-5s" {
		t.Errorf("fixed name = %q", (FixedThreshold{Threshold: 5 * units.Second}).Name())
	}
	if (Immediate{}).Name() != "immediate" || NewAdaptive().Name() != "adaptive" {
		t.Error("policy names wrong")
	}
}

func TestImmediatePolicy(t *testing.T) {
	d, _ := New(testParams(), WithPolicy(Immediate{}))
	d.Access(read(0, 1, units.KB))
	// Any idle instant later the disk is asleep.
	if d.Spinning(d.p.AccessLatency + 10*units.Second) {
		t.Error("immediate policy left the disk spinning")
	}
}

func TestAdaptivePolicyLearns(t *testing.T) {
	p := NewAdaptive()
	start := p.NextSpinDown()
	// Premature wake-ups (slept less than break-even) back the policy off.
	p.OnSpinUp(100 * units.Millisecond)
	if p.NextSpinDown() <= start {
		t.Error("threshold did not grow after a premature wake")
	}
	// Long, profitable sleeps pull the threshold back down toward Min.
	for i := 0; i < 40; i++ {
		p.OnSpinUp(units.Minute)
	}
	if got := p.NextSpinDown(); got != p.Min {
		t.Errorf("threshold %v did not decay to Min %v", got, p.Min)
	}
	// Bounded above.
	for i := 0; i < 40; i++ {
		p.OnSpinUp(0)
	}
	if got := p.NextSpinDown(); got != p.Max {
		t.Errorf("threshold %v did not cap at Max %v", got, p.Max)
	}
}

func TestAdaptiveOnDiskEndToEnd(t *testing.T) {
	// Bursts separated by short idle gaps: the adaptive policy should end
	// up spinning down less often than a 1s fixed threshold.
	run := func(opt Option) (spinUps int64, energy float64) {
		d, _ := New(testParams(), opt)
		var clock units.Time
		for i := 0; i < 200; i++ {
			clock += 3 * units.Second // gaps just above the 1s threshold
			clock = d.Access(read(clock, uint32(i%4), units.KB))
		}
		d.Finish(clock + units.Second)
		return d.SpinUps(), d.Meter().TotalJ()
	}
	fixedUps, _ := run(WithSpinDown(units.Second))
	adaptUps, _ := run(WithPolicy(NewAdaptive()))
	if adaptUps >= fixedUps {
		t.Errorf("adaptive spin-ups %d not below aggressive fixed %d", adaptUps, fixedUps)
	}
}
