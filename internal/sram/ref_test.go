package sram

import (
	"fmt"
	"sort"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// refBuffer is the map-based SRAM buffer that Buffer replaced, frozen
// verbatim as the differential oracle for TestBufferMatchesReference and
// FuzzBufferEquivalence. It keeps one map entry per dirty block and sorts
// the dirty set on every drain. Never optimize it: its job is to stay simple
// enough to audit by eye.
type refBuffer struct {
	params    device.MemoryParams
	size      units.Bytes
	blockSize units.Bytes
	capBlocks int
	inner     device.Device
	meter     *energy.Meter

	// dirty holds buffered block indices.
	dirty map[int64]struct{}
	// drainDoneAt is when the in-flight background drain completes; writes
	// that find the buffer full wait for it.
	drainDoneAt units.Time

	lastUpdate units.Time

	flushes       int64
	overflowStall units.Time
	stalledWrites int64

	// Observability (nil-safe no-ops without a scope).
	sc           *obs.Scope
	evName       string
	cFlushes     *obs.Counter
	cFlushedBlks *obs.Counter
	cStalls      *obs.Counter

	// inj records recovery activity after injected power failures (nil when
	// fault injection is off).
	inj *fault.Injector
}

// newRefBuffer is New with the two options passed directly.
func newRefBuffer(params device.MemoryParams, size, blockSize units.Bytes, inner device.Device, sc *obs.Scope, inj *fault.Injector) *refBuffer {
	b := &refBuffer{
		params:       params,
		size:         size,
		blockSize:    blockSize,
		capBlocks:    int(size / blockSize),
		inner:        inner,
		meter:        energy.NewMeter(),
		dirty:        make(map[int64]struct{}),
		sc:           sc,
		cFlushes:     sc.Counter("sram.flushes"),
		cFlushedBlks: sc.Counter("sram.flushed_blocks"),
		cStalls:      sc.Counter("sram.stalled_writes"),
		inj:          inj,
	}
	b.evName = fmt.Sprintf("%s+sram%v", b.inner.Name(), b.size)
	return b
}

func (b *refBuffer) Name() string              { return b.evName }
func (b *refBuffer) Meter() *energy.Meter      { return b.meter }
func (b *refBuffer) Flushes() int64            { return b.flushes }
func (b *refBuffer) StalledWrites() int64      { return b.stalledWrites }
func (b *refBuffer) OverflowStall() units.Time { return b.overflowStall }

func (b *refBuffer) BufferedBytes() units.Bytes {
	return units.Bytes(len(b.dirty)) * b.blockSize
}

func (b *refBuffer) Idle(now units.Time) {
	b.accrueStandby(now)
	b.inner.Idle(now)
}

func (b *refBuffer) Finish(now units.Time) {
	b.accrueStandby(now)
	b.inner.Finish(now)
}

func (b *refBuffer) Access(req device.Request) units.Time {
	switch req.Op {
	case trace.Delete:
		b.drop(req.Addr, req.Size)
		return b.inner.Access(req)
	case trace.Read:
		return b.read(req)
	case trace.Write:
		return b.write(req)
	default:
		panic(fmt.Sprintf("sram: unknown op %v", req.Op))
	}
}

func (b *refBuffer) read(req device.Request) units.Time {
	first, last := b.blockRange(req.Addr, req.Size)
	allBuffered := len(b.dirty) > 0
	anyBuffered := false
	for blk := first; blk <= last; blk++ {
		if _, ok := b.dirty[blk]; ok {
			anyBuffered = true
		} else {
			allBuffered = false
		}
	}
	if allBuffered {
		return req.Time + b.accessTime(req.Size)
	}
	start := req.Time
	if anyBuffered {
		start = b.flushRange(start, first, last)
	}
	wasSpinning := true
	if ss, ok := b.inner.(spinStater); ok {
		wasSpinning = ss.Spinning(start)
	}
	req.Time = start
	completion := b.inner.Access(req)
	if !wasSpinning && len(b.dirty) > 0 {
		b.drain(completion)
	}
	return completion
}

func (b *refBuffer) write(req device.Request) units.Time {
	if req.Size > b.size {
		b.drop(req.Addr, req.Size)
		return b.inner.Access(req)
	}
	first, last := b.blockRange(req.Addr, req.Size)
	newBlocks := 0
	for blk := first; blk <= last; blk++ {
		if _, ok := b.dirty[blk]; !ok {
			newBlocks++
		}
	}
	start := req.Time
	if len(b.dirty)+newBlocks > b.capBlocks {
		if b.drainDoneAt <= start {
			b.drain(start)
		} else {
			b.overflowStall += b.drainDoneAt - start
			b.stalledWrites++
			b.cStalls.Inc()
			if b.sc.Wants(obs.EvSRAMStall) {
				b.sc.Emit(obs.Event{T: int64(start), Kind: obs.EvSRAMStall, Dev: b.evName,
					Dur: int64(b.drainDoneAt - start)})
			}
			start = b.drainDoneAt
		}
	}
	for blk := first; blk <= last; blk++ {
		b.dirty[blk] = struct{}{}
	}
	completion := start + b.accessTime(req.Size)
	if len(b.dirty) >= int(highWaterFraction*float64(b.capBlocks)) && b.drainDoneAt <= completion {
		b.drain(completion)
	}
	return completion
}

func (b *refBuffer) drain(now units.Time) units.Time {
	blocks := make([]int64, 0, len(b.dirty))
	for blk := range b.dirty {
		blocks = append(blocks, blk)
	}
	firstDone := b.flushBlocks(now, blocks)
	return firstDone
}

func (b *refBuffer) flushRange(now units.Time, first, last int64) units.Time {
	var blocks []int64
	for blk := first; blk <= last; blk++ {
		if _, ok := b.dirty[blk]; ok {
			blocks = append(blocks, blk)
		}
	}
	return b.flushBlocks(now, blocks)
}

func (b *refBuffer) flushBlocks(now units.Time, blocks []int64) units.Time {
	if len(blocks) == 0 {
		return now
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	write := b.inner.Access
	if bg, ok := b.inner.(backgrounder); ok {
		write = bg.Background
	}
	completion := now
	var firstDone units.Time
	runStart := blocks[0]
	runLen := int64(1)
	emit := func() {
		completion = write(device.Request{
			Time: completion,
			Op:   trace.Write,
			File: flushFile,
			Addr: units.Bytes(runStart) * b.blockSize,
			Size: units.Bytes(runLen) * b.blockSize,
		})
		if firstDone == 0 {
			firstDone = completion
		}
	}
	for _, blk := range blocks[1:] {
		if blk == runStart+runLen {
			runLen++
			continue
		}
		emit()
		runStart, runLen = blk, 1
	}
	emit()
	for _, blk := range blocks {
		delete(b.dirty, blk)
	}
	b.flushes++
	b.cFlushes.Inc()
	b.cFlushedBlks.Add(int64(len(blocks)))
	if b.sc.Wants(obs.EvSRAMFlush) {
		b.sc.Emit(obs.Event{T: int64(now), Kind: obs.EvSRAMFlush, Dev: b.evName,
			Size: int64(units.Bytes(len(blocks)) * b.blockSize), Dur: int64(completion - now)})
	}
	if completion > b.drainDoneAt {
		b.drainDoneAt = completion
	}
	return firstDone
}

func (b *refBuffer) drop(addr, size units.Bytes) {
	if size <= 0 {
		return
	}
	first, last := b.blockRange(addr, size)
	for blk := first; blk <= last; blk++ {
		delete(b.dirty, blk)
	}
}

func (b *refBuffer) accessTime(size units.Bytes) units.Time {
	t := b.params.AccessTime(size)
	b.meter.Accrue(energy.StateActive, b.params.ActiveW, t)
	return t
}

func (b *refBuffer) accrueStandby(now units.Time) {
	if now <= b.lastUpdate {
		return
	}
	b.meter.Accrue(energy.StateStandby, b.params.StandbyWPerMB*b.size.MBytes(), now-b.lastUpdate)
	b.lastUpdate = now
}

func (b *refBuffer) blockRange(addr, size units.Bytes) (first, last int64) {
	return int64(addr / b.blockSize), int64((addr + size - 1) / b.blockSize)
}

func (b *refBuffer) Crash(at units.Time) {
	b.accrueStandby(at)
	if b.drainDoneAt > at {
		b.drainDoneAt = at
	}
	if cr, ok := b.inner.(device.Crasher); ok {
		cr.Crash(at)
	}
}

func (b *refBuffer) Recover(at units.Time) units.Time {
	done := at
	if cr, ok := b.inner.(device.Crasher); ok {
		done = cr.Recover(at)
	}
	if len(b.dirty) == 0 {
		return done
	}
	blocks := int64(len(b.dirty))
	b.drain(done)
	if b.drainDoneAt > done {
		done = b.drainDoneAt
	}
	b.inj.RecordReplay(b.evName, blocks, at, done-at)
	if len(b.dirty) != 0 {
		b.inj.Violatef("sram %s: %d dirty blocks remain after recovery replay", b.evName, len(b.dirty))
	}
	return done
}
