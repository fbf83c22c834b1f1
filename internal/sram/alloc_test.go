package sram

import (
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// quietDevice is an always-spinning device with a background path that
// keeps no request log, so it allocates nothing per call.
type quietDevice struct {
	meter     *energy.Meter
	busyUntil units.Time
}

func (d *quietDevice) Access(req device.Request) units.Time {
	if req.Op == trace.Delete {
		return req.Time
	}
	d.busyUntil = units.Max(req.Time, d.busyUntil) + 5*units.Millisecond
	return d.busyUntil
}

func (d *quietDevice) Background(req device.Request) units.Time { return d.Access(req) }
func (d *quietDevice) Spinning(units.Time) bool                 { return true }
func (d *quietDevice) Idle(units.Time)                          {}
func (d *quietDevice) Finish(units.Time)                        {}
func (d *quietDevice) Meter() *energy.Meter                     { return d.meter }
func (d *quietDevice) Name() string                             { return "quiet" }

// newQuietBuffer returns a 32 KB buffer of 512-byte blocks, the synth
// workload's geometry, over a quietDevice.
func newQuietBuffer(tb testing.TB) *Buffer {
	b, err := New(device.NECSRAM(), 32*units.KB, 512, &quietDevice{meter: energy.NewMeter()})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestBufferSteadyStateAllocs pins the buffer's hot path at zero
// allocations once its run slice has grown. Each cycle drains the buffer
// twice (the whole-buffer write overflows it, and the 0.5 KB write finds
// it full), keeps the 2 KB write buffered, and flushes part of that write
// before the read.
func TestBufferSteadyStateAllocs(t *testing.T) {
	b := newQuietBuffer(t)
	var now units.Time
	access := func(op trace.Op, addr, size units.Bytes) {
		now += 10 * units.Millisecond
		b.Idle(now)
		b.Access(device.Request{Time: now, Op: op, File: 1, Addr: addr, Size: size})
	}
	cycle := func() {
		access(trace.Write, 0, 32*units.KB)
		access(trace.Write, 64*units.KB, units.KB/2)
		access(trace.Write, 128*units.KB, 2*units.KB)
		access(trace.Read, 129*units.KB, 4*units.KB)
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("steady-state cycle allocates %v times, want 0", got)
	}
	if b.Flushes() == 0 || b.BufferedBytes() == 0 {
		t.Errorf("cycle did not exercise drains and buffering: %d flushes, %v buffered",
			b.Flushes(), b.BufferedBytes())
	}
}

// BenchmarkBufferWrite times one buffered write, 10 ms after the last, so
// each drain ends before the next begins: 0.5 KB writes to every other
// block, drained as 16 separate runs at the high-water mark, and 32 KB
// writes that each cover the whole buffer and drain it.
func BenchmarkBufferWrite(b *testing.B) {
	for _, bc := range []struct {
		name   string
		size   units.Bytes
		stride units.Bytes
	}{
		{"0.5KB", units.KB / 2, units.KB},
		{"32KB", 32 * units.KB, 32 * units.KB},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := newQuietBuffer(b)
			b.ReportAllocs()
			var now units.Time
			for i := 0; i < b.N; i++ {
				now += 10 * units.Millisecond
				buf.Access(device.Request{Time: now, Op: trace.Write, File: 1,
					Addr: units.Bytes(i%128) * bc.stride, Size: bc.size})
			}
		})
	}
}
