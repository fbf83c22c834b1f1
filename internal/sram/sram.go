// Package sram models a battery-backed SRAM write buffer in front of a
// storage device (§2, §5.5): small synchronous writes complete at SRAM
// speed and are held while the device is unavailable (a spun-down disk
// stays spun down), draining in the background once the device is active
// anyway or the buffer fills — the Quantum Daytona's "deferred spin-up"
// policy.
//
// Writes to SRAM are assumed recoverable after a crash, so buffering a
// synchronous write is safe (§5.5). A write waits only when the buffer is
// full and the drain has not finished ("if writes are large or are
// clustered in time, such that the write buffer frequently fills, then many
// writes will be delayed as they wait for the disk").
//
// The buffer wraps any device.Device, which also supports the paper's
// suggested extension of putting SRAM in front of flash (§5.1, §7).
package sram

import (
	"fmt"
	"math"
	"slices"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// flushFile is the file ID used for flush writes. It is outside any trace's
// file ID space, so the device charges a full seek for the first flush
// write of a batch.
const flushFile = ^uint32(0)

// highWaterFraction is the fill level at which the buffer starts a
// background drain. Runs of writes below this mark never wake a sleeping
// disk at all (the deferred spin-up benefit).
const highWaterFraction = 0.25

// spinStater is implemented by devices with a spin state (the magnetic
// disk); the buffer uses it to decide when draining is cheap.
type spinStater interface {
	Spinning(now units.Time) bool
}

// backgrounder is implemented by devices that can absorb writes off the
// host's critical path (the magnetic disk services host requests ahead of
// writeback). Drains prefer it; devices without it are drained through the
// normal access path.
type backgrounder interface {
	Background(req device.Request) units.Time
}

// Buffer is a battery-backed SRAM write buffer wrapping a storage device.
type Buffer struct {
	params    device.MemoryParams
	size      units.Bytes
	blockSize units.Bytes
	capBlocks int64
	inner     device.Device
	meter     *energy.Meter

	// runs is the dirty set: the buffered block indices as maximal runs,
	// sorted, disjoint and never touching (a run ends at least two blocks
	// before the next begins). A drain writes exactly these runs, one
	// device request each.
	runs []blockRun
	// dirtyBlocks is the number of buffered blocks, the runs' total length.
	dirtyBlocks int64
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

// Option configures a Buffer.
type Option func(*Buffer)

// WithScope attaches an observability scope: flush/stall counters and
// events. A nil scope is free.
func WithScope(sc *obs.Scope) Option {
	return func(b *Buffer) {
		b.sc = sc
		b.cFlushes = sc.Counter("sram.flushes")
		b.cFlushedBlks = sc.Counter("sram.flushed_blocks")
		b.cStalls = sc.Counter("sram.stalled_writes")
	}
}

// WithFaults attaches a fault injector so power-failure recovery can record
// the blocks it replays from the battery-backed buffer. A nil injector is
// free.
func WithFaults(in *fault.Injector) Option {
	return func(b *Buffer) { b.inj = in }
}

// New wraps inner with an SRAM write buffer of the given size.
func New(params device.MemoryParams, size, blockSize units.Bytes, inner device.Device, opts ...Option) (*Buffer, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("sram: block size must be positive")
	}
	if size < blockSize {
		return nil, fmt.Errorf("sram: buffer size %v below one %v block", size, blockSize)
	}
	b := &Buffer{
		params:    params,
		size:      size,
		blockSize: blockSize,
		capBlocks: int64(size / blockSize),
		inner:     inner,
		meter:     energy.NewMeter(),
	}
	for _, o := range opts {
		o(b)
	}
	b.evName = b.Name()
	return b, nil
}

// Name implements device.Device.
func (b *Buffer) Name() string {
	return fmt.Sprintf("%s+sram%v", b.inner.Name(), b.size)
}

// Meter implements device.Device and returns the SRAM's own meter; the
// wrapped device keeps its own accounting.
func (b *Buffer) Meter() *energy.Meter { return b.meter }

// Flushes returns how many drains were performed.
func (b *Buffer) Flushes() int64 { return b.flushes }

// StalledWrites returns how many writes waited for a drain.
func (b *Buffer) StalledWrites() int64 { return b.stalledWrites }

// OverflowStall returns the cumulative time writes spent waiting for space.
func (b *Buffer) OverflowStall() units.Time { return b.overflowStall }

// BufferedBytes returns the amount of dirty data currently held.
func (b *Buffer) BufferedBytes() units.Bytes {
	return units.Bytes(b.dirtyBlocks) * b.blockSize
}

// Idle implements device.Device.
func (b *Buffer) Idle(now units.Time) {
	b.accrueStandby(now)
	b.inner.Idle(now)
}

// Finish implements device.Device. Buffered data stays in SRAM (it is
// battery-backed); spinning the disk up at the end of the simulation just
// to flush would distort the energy accounting.
func (b *Buffer) Finish(now units.Time) {
	b.accrueStandby(now)
	b.inner.Finish(now)
}

// Access implements device.Device.
func (b *Buffer) Access(req device.Request) units.Time {
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

// read serves fully-buffered reads from SRAM; otherwise it flushes any
// overlapping dirty blocks (the device copy must be current before the
// device services the read) and forwards to the device. A read that forced
// a spin-up drains the rest of the buffer afterwards, off the critical
// path, while the platters turn.
func (b *Buffer) read(req device.Request) units.Time {
	first, last := b.blockRange(req.Addr, req.Size)
	buffered := b.count(first, last)
	if b.dirtyBlocks > 0 && buffered == last-first+1 {
		return req.Time + b.accessTime(req.Size)
	}
	start := req.Time
	if buffered > 0 {
		start = b.flush(start, first, last)
	}
	wasSpinning := true
	if ss, ok := b.inner.(spinStater); ok {
		wasSpinning = ss.Spinning(start)
	}
	req.Time = start
	completion := b.inner.Access(req)
	if !wasSpinning && b.dirtyBlocks > 0 {
		b.drain(completion)
	}
	return completion
}

// write buffers the data, draining in the background per the deferred
// spin-up policy; writes larger than the whole buffer bypass it.
func (b *Buffer) write(req device.Request) units.Time {
	if req.Size > b.size {
		// Oversized write: drop overlapping buffered blocks (superseded)
		// and write through.
		b.drop(req.Addr, req.Size)
		return b.inner.Access(req)
	}
	first, last := b.blockRange(req.Addr, req.Size)
	newBlocks := last - first + 1 - b.count(first, last)
	start := req.Time
	if b.dirtyBlocks+newBlocks > b.capBlocks {
		if b.drainDoneAt <= start {
			// Full with no drain in flight: kick one off in the background;
			// the freed space is available immediately in model state.
			b.drain(start)
		} else {
			// Full while a drain is already running (writes arriving
			// faster than the device absorbs them): the write must wait.
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
	b.add(first, last)
	completion := start + b.accessTime(req.Size)

	// High-water background drain: once the buffer is a quarter full, spin
	// the device up (if needed) and drain without delaying the host. Runs of
	// writes smaller than the high-water mark still complete without ever
	// waking a sleeping disk — the deferred spin-up benefit.
	if b.dirtyBlocks >= int64(highWaterFraction*float64(b.capBlocks)) && b.drainDoneAt <= completion {
		b.drain(completion)
	}
	return completion
}

// drain writes the whole buffer back in the background starting at now.
// The buffer empties immediately in model state (new writes can land) while
// the device stays busy until drainDoneAt.
func (b *Buffer) drain(now units.Time) {
	b.flush(now, math.MinInt64, math.MaxInt64)
}

// flush writes the buffered blocks in [first, last] back to the device, one
// request per run in ascending order, and removes them from the buffer. It
// returns the completion time of the first request (now when nothing is
// buffered there); the completion of the whole flush is recorded in
// drainDoneAt.
func (b *Buffer) flush(now units.Time, first, last int64) units.Time {
	bg, background := b.inner.(backgrounder)
	completion := now
	var firstDone units.Time
	var blocks int64
	for _, r := range b.runs[b.search(first):] {
		if r.lo > last {
			break
		}
		lo, hi := max(r.lo, first), min(r.hi, last)
		req := device.Request{
			Time: completion,
			Op:   trace.Write,
			File: flushFile,
			Addr: units.Bytes(lo) * b.blockSize,
			Size: units.Bytes(hi-lo+1) * b.blockSize,
		}
		if background {
			completion = bg.Background(req)
		} else {
			completion = b.inner.Access(req)
		}
		if firstDone == 0 {
			firstDone = completion
		}
		blocks += hi - lo + 1
	}
	if blocks == 0 {
		return now
	}
	b.remove(first, last)
	b.flushes++
	b.cFlushes.Inc()
	b.cFlushedBlks.Add(blocks)
	if b.sc.Wants(obs.EvSRAMFlush) {
		b.sc.Emit(obs.Event{T: int64(now), Kind: obs.EvSRAMFlush, Dev: b.evName,
			Size: int64(units.Bytes(blocks) * b.blockSize), Dur: int64(completion - now)})
	}
	if completion > b.drainDoneAt {
		b.drainDoneAt = completion
	}
	return firstDone
}

// drop removes buffered blocks overlapping [addr, addr+size) without
// writing them back (deletion or supersession).
func (b *Buffer) drop(addr, size units.Bytes) {
	if size <= 0 {
		return
	}
	b.remove(b.blockRange(addr, size))
}

// blockRun is an inclusive range of buffered block indices.
type blockRun struct{ lo, hi int64 }

// search returns the index of the first run that ends at or after blk.
func (b *Buffer) search(blk int64) int {
	i, j := 0, len(b.runs)
	for i < j {
		m := int(uint(i+j) >> 1)
		if b.runs[m].hi < blk {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// count returns how many blocks of [first, last] are buffered.
func (b *Buffer) count(first, last int64) int64 {
	var n int64
	for _, r := range b.runs[b.search(first):] {
		if r.lo > last {
			break
		}
		n += min(r.hi, last) - max(r.lo, first) + 1
	}
	return n
}

// add buffers blocks [first, last], merging every run it overlaps or
// touches into one.
func (b *Buffer) add(first, last int64) {
	if last < first {
		return
	}
	i := b.search(first - 1)
	j := i
	for ; j < len(b.runs) && b.runs[j].lo <= last+1; j++ {
		r := b.runs[j]
		first, last = min(first, r.lo), max(last, r.hi)
		b.dirtyBlocks -= r.hi - r.lo + 1
	}
	b.dirtyBlocks += last - first + 1
	b.runs = slices.Replace(b.runs, i, j, blockRun{first, last})
}

// remove unbuffers blocks [first, last], trimming the runs at its edges and
// splitting a run that spans it.
func (b *Buffer) remove(first, last int64) {
	i := b.search(first)
	var keep [2]blockRun
	k := 0
	j := i
	for ; j < len(b.runs) && b.runs[j].lo <= last; j++ {
		r := b.runs[j]
		b.dirtyBlocks -= min(r.hi, last) - max(r.lo, first) + 1
		if r.lo < first {
			keep[k] = blockRun{r.lo, first - 1}
			k++
		}
		if r.hi > last {
			keep[k] = blockRun{last + 1, r.hi}
			k++
		}
	}
	b.runs = slices.Replace(b.runs, i, j, keep[:k]...)
}

// accessTime charges active energy for an SRAM transfer and returns its
// duration.
func (b *Buffer) accessTime(size units.Bytes) units.Time {
	t := b.params.AccessTime(size)
	b.meter.Accrue(energy.StateActive, b.params.ActiveW, t)
	return t
}

func (b *Buffer) accrueStandby(now units.Time) {
	if now <= b.lastUpdate {
		return
	}
	b.meter.Accrue(energy.StateStandby, b.params.StandbyWPerMB*b.size.MBytes(), now-b.lastUpdate)
	b.lastUpdate = now
}

func (b *Buffer) blockRange(addr, size units.Bytes) (first, last int64) {
	return int64(addr / b.blockSize), int64((addr + size - 1) / b.blockSize)
}

// Crash implements device.Crasher. The SRAM is battery-backed, so the dirty
// set survives; only the in-flight drain's timing state is discarded (the
// blocks a drain removes from the dirty set have already been applied to the
// wrapped device's model state, so nothing acknowledged is lost). The crash
// propagates to the wrapped device.
func (b *Buffer) Crash(at units.Time) {
	b.accrueStandby(at)
	if b.drainDoneAt > at {
		b.drainDoneAt = at
	}
	if cr, ok := b.inner.(device.Crasher); ok {
		cr.Crash(at)
	}
}

// Recover implements device.Crasher: after the wrapped device recovers, the
// surviving dirty blocks are replayed to it — the battery-backed guarantee
// that makes buffering synchronous writes safe (§5.5). Returns when the
// replay completes; the buffer is empty afterwards.
func (b *Buffer) Recover(at units.Time) units.Time {
	done := at
	if cr, ok := b.inner.(device.Crasher); ok {
		done = cr.Recover(at)
	}
	if b.dirtyBlocks == 0 {
		return done
	}
	blocks := b.dirtyBlocks
	b.drain(done)
	if b.drainDoneAt > done {
		done = b.drainDoneAt
	}
	b.inj.RecordReplay(b.evName, blocks, at, done-at)
	if b.dirtyBlocks != 0 {
		b.inj.Violatef("sram %s: %d dirty blocks remain after recovery replay", b.evName, b.dirtyBlocks)
	}
	return done
}

var (
	_ device.Device  = (*Buffer)(nil)
	_ device.Crasher = (*Buffer)(nil)
)
