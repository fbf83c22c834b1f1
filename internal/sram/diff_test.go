package sram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// diffCall is one request the wrapped device saw and the path it came in
// on.
type diffCall struct {
	Req        device.Request
	Background bool
}

// diffDevice is the inner device of the differential tests. It logs every
// request, charges a size-dependent service time and active energy, and
// queues requests behind each other. It has only the device.Device methods;
// spinDevice adds the optional ones.
type diffDevice struct {
	meter     *energy.Meter
	busyUntil units.Time
	log       []diffCall
}

func (d *diffDevice) Access(req device.Request) units.Time { return d.serve(req, false) }

func (d *diffDevice) serve(req device.Request, background bool) units.Time {
	d.log = append(d.log, diffCall{req, background})
	if req.Op == trace.Delete {
		return req.Time
	}
	start := units.Max(req.Time, d.busyUntil)
	service := 2*units.Millisecond + units.Time(req.Size/units.KB)*100*units.Microsecond
	d.busyUntil = start + service
	d.meter.Accrue(energy.StateActive, 2, service)
	return d.busyUntil
}

func (d *diffDevice) Idle(units.Time)      {}
func (d *diffDevice) Finish(units.Time)    {}
func (d *diffDevice) Meter() *energy.Meter { return d.meter }
func (d *diffDevice) Name() string         { return "diff" }

// spinDevice adds Spinning, Background and device.Crasher. An always-on one
// reports spinning at all times; a sleepy one spins down after a second
// without work, so reads often find it asleep.
type spinDevice struct {
	*diffDevice
	sleepy bool
}

func (d spinDevice) Spinning(now units.Time) bool {
	return !d.sleepy || now < d.busyUntil+units.Second
}

func (d spinDevice) Background(req device.Request) units.Time { return d.serve(req, true) }

func (d spinDevice) Crash(at units.Time) {
	if d.busyUntil > at {
		d.busyUntil = at
	}
}

func (d spinDevice) Recover(at units.Time) units.Time { return at + 50*units.Millisecond }

// diffInner returns a fresh inner device of the given kind: 0 always
// spinning, 1 sleepy, 2 plain (no Spinning, Background or Crasher).
func diffInner(kind int) (device.Device, *diffDevice) {
	d := &diffDevice{meter: energy.NewMeter()}
	if kind == 2 {
		return d, d
	}
	return spinDevice{diffDevice: d, sleepy: kind == 1}, d
}

// streamBytes reads a differential stream's choices from a byte string.
// Past the end every byte reads as zero, so any input is a valid stream.
type streamBytes struct {
	data []byte
	pos  int
}

func (s *streamBytes) more() bool { return s.pos < len(s.data) }

func (s *streamBytes) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

// pick returns a choice in [0, n).
func (s *streamBytes) pick(n int) int { return s.next() % n }

// diffSide is one buffer under test with everything it reports into.
type diffSide struct {
	buf interface {
		device.Device
		device.Crasher
		Flushes() int64
		StalledWrites() int64
		OverflowStall() units.Time
		BufferedBytes() units.Bytes
	}
	inner  *diffDevice
	events *obs.Collector
	reg    *obs.Registry
	inj    *fault.Injector
}

func newDiffSide(kind int, size, blockSize units.Bytes, frozen bool) (*diffSide, error) {
	inner, log := diffInner(kind)
	s := &diffSide{inner: log, events: obs.NewCollector(obs.AllKinds), reg: obs.NewRegistry()}
	sc := obs.NewScope(s.reg, s.events)
	s.inj = fault.NewInjector(&fault.Plan{PowerFailAtUs: []int64{1}}, 1, sc)
	if frozen {
		s.buf = newRefBuffer(device.NECSRAM(), size, blockSize, inner, sc, s.inj)
		return s, nil
	}
	b, err := New(device.NECSRAM(), size, blockSize, inner, WithScope(sc), WithFaults(s.inj))
	s.buf = b
	return s, err
}

// runDifferential decodes data into a buffer configuration and a stream of
// reads, writes, deletes and crash/recover pairs, replays the stream
// through Buffer and through the frozen refBuffer, and fails on the first
// difference. The address space is about twice the buffer, so requests
// overlap, abut and split buffered runs; sizes run from zero through
// sub-block and unaligned to larger than the whole buffer; gaps run from
// back to back (drains still in flight, stalls) to tens of seconds.
func runDifferential(t testing.TB, data []byte) {
	t.Helper()
	s := &streamBytes{data: data}
	blockSize := []units.Bytes{512, units.KB}[s.pick(2)]
	capBlocks := []int{1, 2, 3, 4, 5, 8, 16, 32, 64}[s.pick(9)]
	// A quarter of the buffers are not a whole number of blocks.
	size := units.Bytes(capBlocks)*blockSize + units.Bytes(s.pick(4))*blockSize/4
	kind := s.pick(3)
	got, err := newDiffSide(kind, size, blockSize, false)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := newDiffSide(kind, size, blockSize, true)
	config := fmt.Sprintf("size %v, block %v, inner kind %d", size, blockSize, kind)

	var now units.Time
	for step := 0; s.more(); step++ {
		switch s.pick(8) {
		case 0, 1: // back to back
		case 2:
			now += units.Time(s.next())
		case 3, 4:
			now += units.Time(s.next()) * units.Millisecond
		case 5:
			now += units.Time(s.next()) * 10 * units.Millisecond
		case 6:
			now += units.Time(s.pick(16)) * units.Second
		case 7:
			now += units.Time(s.pick(64)) * units.Second
		}
		got.buf.Idle(now)
		want.buf.Idle(now)

		var op trace.Op
		switch k := s.pick(16); {
		case k < 7:
			op = trace.Write
		case k < 12:
			op = trace.Read
		case k < 14:
			op = trace.Delete
		default:
			got.buf.Crash(now)
			want.buf.Crash(now)
			dg, dw := got.buf.Recover(now), want.buf.Recover(now)
			if dg != dw {
				t.Fatalf("%s: step %d: Recover(%dµs) = %dµs, reference %dµs", config, step, now, dg, dw)
			}
			compareSides(t, config, step, got, want)
			now = dg
			continue
		}
		addr := units.Bytes(s.pick(2*capBlocks+8)) * blockSize
		if s.pick(2) == 1 {
			addr += units.Bytes(s.next()) % blockSize
		}
		var reqSize units.Bytes
		switch s.pick(8) {
		case 0: // zero
		case 1: // sub-block
			reqSize = 1 + units.Bytes(s.next())%(blockSize-1)
		case 2:
			reqSize = blockSize
		case 3:
			reqSize = units.Bytes(1+s.pick(capBlocks)) * blockSize
		case 4: // unaligned multi-block
			reqSize = units.Bytes(1+s.pick(capBlocks))*blockSize + units.Bytes(1+s.next())
		case 5:
			reqSize = size
		case 6: // larger than the buffer
			reqSize = size + 1 + units.Bytes(s.next())*blockSize/8
		case 7:
			reqSize = units.Bytes(s.next()) * size / 128
		}
		req := device.Request{Time: now, Op: op, File: uint32(1 + s.pick(4)), Addr: addr, Size: reqSize}
		cg, cw := got.buf.Access(req), want.buf.Access(req)
		if cg != cw {
			t.Fatalf("%s: step %d: %+v completed at %dµs, reference %dµs", config, step, req, cg, cw)
		}
		compareSides(t, config, step, got, want)
	}
	now += units.Second
	got.buf.Finish(now)
	want.buf.Finish(now)

	if !reflect.DeepEqual(got.inner.log, want.inner.log) {
		n := min(len(got.inner.log), len(want.inner.log))
		for i := 0; i < n; i++ {
			if g, w := got.inner.log[i], want.inner.log[i]; g != w {
				t.Fatalf("%s: inner request %d = %+v at %dµs, reference %+v at %dµs",
					config, i, g, int64(g.Req.Time), w, int64(w.Req.Time))
			}
		}
		t.Fatalf("%s: inner saw %d requests, reference %d", config, len(got.inner.log), len(want.inner.log))
	}
	gm, wm := got.buf.Meter(), want.buf.Meter()
	for s := energy.StateActive; s <= energy.StateStandby; s++ {
		if g, w := gm.StateJ(s), wm.StateJ(s); g != w {
			t.Errorf("%s: SRAM %s energy %v J, reference %v J", config, s, g, w)
		}
	}
	if g, w := gm.String(), wm.String(); g != w {
		t.Errorf("%s: SRAM energy %s, reference %s", config, g, w)
	}
	if g, w := got.inner.meter.TotalJ(), want.inner.meter.TotalJ(); g != w {
		t.Errorf("%s: inner energy %v J, reference %v J", config, g, w)
	}
	if g, w := got.events.Events(), want.events.Events(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: events differ:\n got %v\nwant %v", config, g, w)
	}
	if g, w := got.reg.Counters(), want.reg.Counters(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: counters %v, reference %v", config, g, w)
	}
	if g, w := got.inj.Report(), want.inj.Report(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: fault report %+v, reference %+v", config, g, w)
	}
}

func compareSides(t testing.TB, config string, step int, got, want *diffSide) {
	t.Helper()
	g, w := got.buf, want.buf
	if g.BufferedBytes() != w.BufferedBytes() || g.Flushes() != w.Flushes() ||
		g.StalledWrites() != w.StalledWrites() || g.OverflowStall() != w.OverflowStall() {
		t.Fatalf("%s: step %d: buffered %v, flushes %d, stalled %d (%v); reference %v, %d, %d (%v)",
			config, step, g.BufferedBytes(), g.Flushes(), g.StalledWrites(), g.OverflowStall(),
			w.BufferedBytes(), w.Flushes(), w.StalledWrites(), w.OverflowStall())
	}
}

// TestBufferMatchesReference replays seeded random streams through Buffer
// and the frozen map-based refBuffer and requires identical behavior.
func TestBufferMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		data := make([]byte, 50+rng.Intn(2000))
		rng.Read(data)
		runDifferential(t, data)
		if t.Failed() {
			t.Fatalf("stream %d (seed 1) failed", i)
		}
	}
}

// FuzzBufferEquivalence explores the same generator coverage-guided.
func FuzzBufferEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(1994))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64<<(i%4))
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, data)
	})
}
