package sram

import (
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// fakeDevice records every request it services and takes a fixed time per
// op; Spinning/Background behavior is controllable.
type fakeDevice struct {
	meter     *energy.Meter
	service   units.Time
	busyUntil units.Time
	requests  []device.Request
	bgCount   int
	spinning  bool
	hasSpin   bool // whether to expose the spinStater interface behavior
}

func newFake(service units.Time) *fakeDevice {
	return &fakeDevice{meter: energy.NewMeter(), service: service, spinning: true}
}

func (f *fakeDevice) Access(req device.Request) units.Time {
	f.requests = append(f.requests, req)
	if req.Op == trace.Delete {
		return req.Time
	}
	start := units.Max(req.Time, f.busyUntil)
	f.busyUntil = start + f.service
	return f.busyUntil
}

func (f *fakeDevice) Idle(units.Time)      {}
func (f *fakeDevice) Finish(units.Time)    {}
func (f *fakeDevice) Meter() *energy.Meter { return f.meter }
func (f *fakeDevice) Name() string         { return "fake" }

// spinFake adds Spinning/Background.
type spinFake struct {
	fakeDevice
}

func (f *spinFake) Spinning(units.Time) bool { return f.spinning }

func (f *spinFake) Background(req device.Request) units.Time {
	f.bgCount++
	return f.Access(req)
}

func newBuffer(t *testing.T, size units.Bytes, inner device.Device) *Buffer {
	t.Helper()
	b, err := New(device.NECSRAM(), size, units.KB, inner)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func wr(at units.Time, addr, size units.Bytes) device.Request {
	return device.Request{Time: at, Op: trace.Write, File: 1, Addr: addr, Size: size}
}

func rd(at units.Time, addr, size units.Bytes) device.Request {
	return device.Request{Time: at, Op: trace.Read, File: 1, Addr: addr, Size: size}
}

func TestSmallWriteAbsorbed(t *testing.T) {
	inner := newFake(50 * units.Millisecond)
	b := newBuffer(t, 32*units.KB, inner)
	done := b.Access(wr(0, 0, units.KB))
	if done >= units.Millisecond {
		t.Errorf("buffered write took %v, want SRAM speed", done)
	}
	if len(inner.requests) != 0 {
		t.Errorf("small write reached the device: %v", inner.requests)
	}
	if b.BufferedBytes() != units.KB {
		t.Errorf("buffered = %v", b.BufferedBytes())
	}
}

func TestReadServedFromBuffer(t *testing.T) {
	inner := newFake(50 * units.Millisecond)
	b := newBuffer(t, 32*units.KB, inner)
	b.Access(wr(0, 0, 2*units.KB))
	done := b.Access(rd(units.Second, 0, 2*units.KB))
	if done-units.Second >= units.Millisecond {
		t.Errorf("buffered read took %v", done-units.Second)
	}
	if len(inner.requests) != 0 {
		t.Error("fully buffered read reached the device")
	}
}

func TestPartialOverlapFlushesBeforeRead(t *testing.T) {
	inner := newFake(10 * units.Millisecond)
	b := newBuffer(t, 32*units.KB, inner)
	b.Access(wr(0, 0, units.KB))
	// Read covers the buffered block plus one more: the dirty block must be
	// written back before the device read.
	b.Access(rd(units.Second, 0, 2*units.KB))
	if len(inner.requests) != 2 {
		t.Fatalf("requests = %v, want flush write + read", inner.requests)
	}
	if inner.requests[0].Op != trace.Write || inner.requests[1].Op != trace.Read {
		t.Errorf("wrong order: %v", inner.requests)
	}
	if b.BufferedBytes() != 0 {
		t.Error("flushed block still buffered")
	}
}

func TestOversizedWriteBypasses(t *testing.T) {
	inner := newFake(10 * units.Millisecond)
	b := newBuffer(t, 32*units.KB, inner)
	b.Access(wr(0, 0, units.KB))    // buffered, below high water
	b.Access(wr(0, 0, 33*units.KB)) // oversized: straight through
	if len(inner.requests) != 1 {
		t.Fatalf("requests = %d, want 1", len(inner.requests))
	}
	// The buffered block overlapped the big write, so it was superseded.
	if b.BufferedBytes() != 0 {
		t.Errorf("superseded block still buffered: %v", b.BufferedBytes())
	}
}

func TestOverflowStartsBackgroundDrain(t *testing.T) {
	inner := newFake(10 * units.Millisecond)
	b := newBuffer(t, 4*units.KB, inner) // 4 blocks
	var clock units.Time
	for i := 0; i < 5; i++ { // fifth write overflows
		clock = b.Access(wr(clock, units.Bytes(i)*units.KB, units.KB))
	}
	if b.Flushes() == 0 {
		t.Fatal("no drain on overflow")
	}
	// The overflow write itself did not wait for the device.
	if clock > 10*units.Millisecond {
		t.Errorf("overflow write completed at %v — it blocked on the drain", clock)
	}
	if b.StalledWrites() != 0 {
		t.Errorf("stalled writes = %d, want 0 (single overflow)", b.StalledWrites())
	}
}

func TestDoubleOverflowStalls(t *testing.T) {
	inner := newFake(200 * units.Millisecond) // slow device
	b := newBuffer(t, 2*units.KB, inner)
	var clock units.Time
	// Hammer writes to distinct blocks with no gaps: the second overflow
	// arrives while the first drain is still running and must wait.
	for i := 0; i < 8; i++ {
		clock = b.Access(wr(clock, units.Bytes(i)*units.KB, units.KB))
	}
	if b.StalledWrites() == 0 {
		t.Error("no write stalled despite back-to-back overflows")
	}
	if b.OverflowStall() <= 0 {
		t.Error("no stall time recorded")
	}
}

func TestHighWaterDrainWhenSpinning(t *testing.T) {
	inner := &spinFake{fakeDevice: *newFake(5 * units.Millisecond)}
	inner.spinning = true
	b := newBuffer(t, 8*units.KB, inner)
	var clock units.Time
	for i := 0; i < 3; i++ { // 3 ≥ 25% of 8 blocks
		clock = b.Access(wr(clock+units.Second, units.Bytes(i)*units.KB, units.KB))
	}
	if b.Flushes() == 0 {
		t.Error("no high-water drain while the device was spinning")
	}
	if inner.bgCount == 0 {
		t.Error("drain did not use the background path")
	}
}

func TestSleepingDiskStaysAsleepBelowHighWater(t *testing.T) {
	inner := &spinFake{fakeDevice: *newFake(5 * units.Millisecond)}
	inner.spinning = false
	b := newBuffer(t, 32*units.KB, inner) // high water at 8 blocks
	var clock units.Time
	for i := 0; i < 6; i++ {
		clock = b.Access(wr(clock+units.Second, units.Bytes(i)*units.KB, units.KB))
	}
	if len(inner.requests) != 0 {
		t.Errorf("writes below high water woke a sleeping disk: %v", inner.requests)
	}
	_ = clock
}

func TestReadSpinUpDrainsBuffer(t *testing.T) {
	inner := &spinFake{fakeDevice: *newFake(5 * units.Millisecond)}
	inner.spinning = false
	b := newBuffer(t, 32*units.KB, inner)
	b.Access(wr(0, 0, units.KB))
	// A read of un-buffered data forces the device up; the buffer drains
	// opportunistically afterwards.
	b.Access(rd(units.Second, 100*units.KB, units.KB))
	if b.BufferedBytes() != 0 {
		t.Error("buffer not drained after a spin-up read")
	}
}

func TestDeleteDropsBufferedBlocks(t *testing.T) {
	inner := newFake(5 * units.Millisecond)
	b := newBuffer(t, 32*units.KB, inner)
	b.Access(wr(0, 0, 2*units.KB))
	b.Access(device.Request{Time: 1, Op: trace.Delete, Addr: 0, Size: 2 * units.KB})
	if b.BufferedBytes() != 0 {
		t.Error("deleted blocks still buffered")
	}
	// The delete itself is forwarded (flash devices need the invalidation).
	if len(inner.requests) != 1 || inner.requests[0].Op != trace.Delete {
		t.Errorf("requests = %v", inner.requests)
	}
}

func TestCoalescedFlush(t *testing.T) {
	inner := newFake(5 * units.Millisecond)
	b := newBuffer(t, 16*units.KB, inner) // high water at 4 blocks
	// Four contiguous blocks: the high-water drain must emit one write.
	var clock units.Time
	for i := 0; i < 4; i++ {
		clock = b.Access(wr(clock, units.Bytes(i)*units.KB, units.KB))
	}
	if len(inner.requests) != 1 {
		t.Fatalf("flush produced %d writes, want 1", len(inner.requests))
	}
	if inner.requests[0].Size != 4*units.KB {
		t.Errorf("flush size = %v, want 4KB", inner.requests[0].Size)
	}
}

func TestStandbyEnergy(t *testing.T) {
	inner := newFake(5 * units.Millisecond)
	b := newBuffer(t, 32*units.KB, inner)
	b.Finish(1000 * units.Second)
	if b.Meter().TotalJ() <= 0 {
		t.Error("no standby energy")
	}
}

func TestConstructionErrors(t *testing.T) {
	inner := newFake(time1)
	if _, err := New(device.NECSRAM(), 100, units.KB, inner); err == nil {
		t.Error("sub-block buffer accepted")
	}
	if _, err := New(device.NECSRAM(), units.KB, 0, inner); err == nil {
		t.Error("zero block size accepted")
	}
}

const time1 = units.Millisecond

func TestName(t *testing.T) {
	b := newBuffer(t, 32*units.KB, newFake(time1))
	if b.Name() != "fake+sram32KB" {
		t.Errorf("Name = %q", b.Name())
	}
	if b.inner.Name() != "fake" {
		t.Error("inner device broken")
	}
}
