// Package flashdisk models a flash disk emulator (SunDisk SDP series): a
// flash memory card behind a conventional disk interface that transfers in
// multiples of a 512-byte sector and erases one sector at a time.
//
// Two erase disciplines are modeled (§5.3):
//
//   - On-demand (SDP10, SDP5): erasure is coupled with the write, giving
//     the low effective write bandwidth of Table 2 (50–75 KB/s).
//   - Asynchronous (SDP5A): sectors freed by overwrites are erased in the
//     background at the standalone erase bandwidth (150 KB/s); writes that
//     find pre-erased sectors proceed at the much higher pre-erased write
//     bandwidth (400 KB/s).
//
// Because the erase unit equals the transfer unit, the flash disk never
// copies live data, so — unlike the flash card — its behavior is immune to
// storage utilization (§5.2).
package flashdisk

import (
	"fmt"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// FlashDisk is a flash disk emulator device model.
type FlashDisk struct {
	p     device.FlashDiskParams
	meter *energy.Meter

	asyncErase bool
	capacity   units.Bytes

	lastUpdate units.Time
	busyUntil  units.Time

	// Sector pools for the asynchronous-erase discipline. The device remaps
	// logical sectors internally: an overwrite lands in a pre-erased
	// physical sector and the stale previous copy joins the erase queue.
	preErased  int64 // sectors erased and ready to accept writes
	stale      int64 // sectors awaiting background erasure
	spareTotal int64 // total spare sectors (preErased + stale + in-flight)

	// eraseProgress holds background erase progress (µs of work done toward
	// the next stale sector) across idle periods.
	eraseProgress units.Time

	totalErases  int64
	totalSectors int64
	ops          int64

	// Memoized transfer times for the part's fixed datasheet bandwidths;
	// results are bit-identical to calling units.TransferTime directly.
	// perSectorErase is the constant background-erase time per sector.
	readMemo       units.TransferMemo
	coupledMemo    units.TransferMemo
	preErasedMemo  units.TransferMemo
	eraseMemo      units.TransferMemo
	perSectorErase units.Time

	// inj injects transient errors and wear-out; deadSectors counts sectors
	// retired after crossing the wear-out threshold (the controller
	// wear-levels uniformly, so one sector dies per threshold's worth of
	// total erasures).
	inj         *fault.Injector
	deadSectors int64

	// Observability (nil-safe no-ops without a scope).
	sc      *obs.Scope
	evName  string
	cErases *obs.Counter
	cWrites *obs.Counter
	cReads  *obs.Counter
}

// Option configures a FlashDisk.
type Option func(*FlashDisk)

// WithAsyncErase enables the SDP5A asynchronous-erasure discipline. It is
// an error to enable it on a part whose parameters lack standalone erase
// bandwidths; New reports that.
func WithAsyncErase() Option {
	return func(f *FlashDisk) { f.asyncErase = true }
}

// WithScope attaches an observability scope: write/erase counters and
// events. A nil scope is free.
func WithScope(sc *obs.Scope) Option {
	return func(f *FlashDisk) {
		f.sc = sc
		f.cErases = sc.Counter("flashdisk.erased_sectors")
		f.cWrites = sc.Counter("flashdisk.writes")
		f.cReads = sc.Counter("flashdisk.reads")
	}
}

// WithFaults attaches a fault injector: transient read/write errors are
// retried (each physical attempt charges full time, energy, and — for
// writes — erasures), and wear-out retires sectors: under the asynchronous
// discipline each death shrinks the spare pool, degrading write performance
// toward the coupled path. A nil injector is free.
func WithFaults(in *fault.Injector) Option {
	return func(f *FlashDisk) { f.inj = in }
}

// spareSectors is the pool of spare sectors available for remapping under
// the asynchronous discipline. SunDisk did not publish the spare-area
// size; a small fixed pool (16 KB) is what makes large or tightly clustered
// writes fall back to coupled erase+write, keeping the §5.3 improvement in
// the paper's 56-61% band rather than at the 400/75 bandwidth ratio.
const spareSectors = 32

// New builds a flash disk of the given capacity.
func New(p device.FlashDiskParams, capacity units.Bytes, opts ...Option) (*FlashDisk, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if capacity < p.SectorSize {
		return nil, fmt.Errorf("flashdisk %s: capacity %v below one sector", p.Name, capacity)
	}
	f := &FlashDisk{
		p:              p,
		meter:          energy.NewMeter(),
		capacity:       capacity,
		totalSectors:   int64(capacity / p.SectorSize),
		readMemo:       units.NewTransferMemo(p.ReadKBs),
		coupledMemo:    units.NewTransferMemo(p.WriteCoupledKBs),
		preErasedMemo:  units.NewTransferMemo(p.WritePreErasedKBs),
		eraseMemo:      units.NewTransferMemo(p.EraseKBs),
		perSectorErase: units.TransferTime(p.SectorSize, p.EraseKBs),
	}
	for _, o := range opts {
		o(f)
	}
	f.evName = f.Name()
	if f.asyncErase {
		if !p.SupportsAsyncErase() {
			return nil, fmt.Errorf("flashdisk %s: part does not support asynchronous erasure", p.Name)
		}
		f.spareTotal = spareSectors
		if f.spareTotal > f.totalSectors/2 {
			f.spareTotal = f.totalSectors / 2
		}
		f.preErased = f.spareTotal // spares ship erased
	}
	return f, nil
}

// Name implements device.Device.
func (f *FlashDisk) Name() string {
	mode := ""
	if f.asyncErase {
		mode = "-async"
	}
	return fmt.Sprintf("%s-%s%s", f.p.Name, f.p.Source, mode)
}

// Meter implements device.Device.
func (f *FlashDisk) Meter() *energy.Meter { return f.meter }

// Params returns the device parameters.
func (f *FlashDisk) Params() device.FlashDiskParams { return f.p }

// PreErased returns the current pre-erased sector count (async mode).
func (f *FlashDisk) PreErased() int64 { return f.preErased }

// TotalErases returns the total number of sector erasures performed.
func (f *FlashDisk) TotalErases() int64 { return f.totalErases }

// Idle implements device.Device: standby energy plus background erasure.
func (f *FlashDisk) Idle(now units.Time) { f.advance(now) }

// Finish implements device.Device.
func (f *FlashDisk) Finish(now units.Time) { f.advance(now) }

// Access implements device.Device.
func (f *FlashDisk) Access(req device.Request) units.Time {
	if req.Op == trace.Delete {
		// The disk interface has no delete; freed sectors become stale only
		// when overwritten. Metadata-only, instantaneous.
		return req.Time
	}
	start := units.Max(req.Time, f.busyUntil)
	f.advance(start)

	var service units.Time
	switch req.Op {
	case trace.Read:
		service = f.p.AccessLatency + f.readMemo.Time(req.Size)
		f.meter.AccrueSlot(energy.SlotActive, f.p.ActiveW, service)
		if f.inj != nil {
			if att, backoff := f.inj.Attempts(fault.OpRead, f.evName, start); att > 1 {
				extra := service * units.Time(att-1)
				f.meter.AccrueSlot(energy.SlotActive, f.p.ActiveW, extra)
				f.meter.AccrueSlot(energy.SlotStandby, f.p.StandbyW, backoff)
				service += extra + backoff
			}
		}
		f.cReads.Inc()
	case trace.Write:
		service = f.writeTime(req.Size, start)
		if f.inj != nil {
			// Each failed program attempt repeats the whole transfer — with
			// its full energy, pool movement, and erasures — plus the
			// backoff wait at standby power.
			att, backoff := f.inj.Attempts(fault.OpWrite, f.evName, start)
			for a := int64(1); a < att; a++ {
				service += f.writeTime(req.Size, start+service)
			}
			if backoff > 0 {
				f.meter.AccrueSlot(energy.SlotStandby, f.p.StandbyW, backoff)
				service += backoff
			}
		}
		f.cWrites.Inc()
		if f.sc.Tracing() {
			f.sc.Emit(obs.Event{T: int64(start), Kind: obs.EvFlashDiskWrite, Dev: f.evName,
				Addr: int64(req.Addr), Size: int64(req.Size), Dur: int64(service)})
		}
	}
	completion := start + service
	f.lastUpdate = completion
	f.busyUntil = completion
	f.ops++
	return completion
}

// writeTime computes and accounts the service time of a write arriving at
// start (the instant is only used for event timestamps).
func (f *FlashDisk) writeTime(size units.Bytes, start units.Time) units.Time {
	sectors := int64(units.CeilDiv(size, f.p.SectorSize))
	if !f.asyncErase {
		// Erase coupled with write at the low combined bandwidth.
		t := f.p.AccessLatency + f.coupledMemo.Time(size)
		f.meter.AccrueSlot(energy.SlotActive, f.p.WriteW, t)
		f.recordErases(sectors, start, true)
		return t
	}
	// Asynchronous discipline: use pre-erased sectors first, erase the
	// shortfall synchronously.
	fast := sectors
	if fast > f.preErased {
		fast = f.preErased
	}
	slow := sectors - fast
	f.preErased -= fast
	// Every overwritten sector leaves a stale previous copy behind, bounded
	// by the spare pool.
	f.stale += sectors
	if f.preErased+f.stale > f.spareTotal {
		f.stale = f.spareTotal - f.preErased
	}

	t := f.p.AccessLatency
	if fast > 0 {
		t += f.preErasedMemo.Time(units.Bytes(fast) * f.p.SectorSize)
	}
	if slow > 0 {
		b := units.Bytes(slow) * f.p.SectorSize
		t += f.eraseMemo.Time(b) + f.preErasedMemo.Time(b)
		f.recordErases(slow, start, true)
	}
	f.meter.AccrueSlot(energy.SlotActive, f.p.WriteW, t)
	return t
}

// recordErases accounts sector erasures for both the totals and the
// observability layer. sync marks erasures performed on the write path.
func (f *FlashDisk) recordErases(sectors int64, at units.Time, sync bool) {
	f.totalErases += sectors
	f.cErases.Add(sectors)
	if f.sc.Tracing() {
		var addr int64
		if sync {
			addr = 1
		}
		f.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvFlashDiskErase, Dev: f.evName,
			Addr: addr, Size: sectors})
	}
	if f.inj != nil {
		f.checkWear(at)
	}
}

// checkWear retires sectors that crossed the wear-out threshold. The SDP
// controller wear-levels uniformly (see EraseCounts), so one sector dies
// per WearOutEvery total erasures. Under the asynchronous discipline each
// death permanently shrinks the spare pool — capacity degradation that
// pushes writes back onto the coupled erase+write path; without spares the
// death is recorded as remapping capacity the model cannot shrink further.
func (f *FlashDisk) checkWear(at units.Time) {
	every := f.inj.WearOutEvery()
	if every == 0 {
		return
	}
	worn := f.totalErases / every
	for f.deadSectors < worn {
		unit := f.deadSectors
		f.deadSectors++
		if f.asyncErase && f.spareTotal > 1 {
			f.spareTotal--
			if f.preErased > f.spareTotal {
				f.preErased = f.spareTotal
			}
			if f.preErased+f.stale > f.spareTotal {
				f.stale = f.spareTotal - f.preErased
			}
			f.inj.RecordRemap(f.evName, unit, f.spareTotal, at)
		} else {
			f.inj.RecordSpareExhausted(f.evName, unit, at)
		}
	}
}

// DeadSectors returns the number of sectors retired by injected wear-out.
func (f *FlashDisk) DeadSectors() int64 { return f.deadSectors }

// Crash implements device.Crasher: a power failure drops the controller's
// in-flight background-erase progress; flash contents and the remapping
// tables survive in non-volatile media.
func (f *FlashDisk) Crash(at units.Time) {
	f.advance(at)
	f.eraseProgress = 0
	if f.busyUntil > at {
		f.busyUntil = at
	}
}

// Recover implements device.Crasher: the controller re-checks its pool
// bookkeeping on restart; an inconsistent pool would be a model bug.
func (f *FlashDisk) Recover(at units.Time) units.Time {
	if f.preErased < 0 || f.stale < 0 || f.preErased+f.stale > f.spareTotal {
		f.inj.Violatef("flashdisk %s: pool inconsistent after crash: preErased=%d stale=%d spareTotal=%d",
			f.p.Name, f.preErased, f.stale, f.spareTotal)
	}
	return at
}

// advance integrates standby energy and, in async mode, background erasure
// over [lastUpdate, now].
func (f *FlashDisk) advance(now units.Time) {
	if now <= f.lastUpdate {
		return
	}
	gap := now - f.lastUpdate
	var spent units.Time // erase time spent within this gap
	if f.asyncErase && f.stale > 0 {
		perSector := f.perSectorErase
		progress := f.eraseProgress + gap
		erased := int64(progress / perSector)
		if erased >= f.stale {
			// Background eraser drains the queue and goes quiet.
			erased = f.stale
			spent = units.Time(erased)*perSector - f.eraseProgress
			f.eraseProgress = 0
		} else {
			// The whole gap goes to erasing; save partial progress.
			spent = gap
			f.eraseProgress = progress - units.Time(erased)*perSector
		}
		f.stale -= erased
		f.preErased += erased
		if erased > 0 {
			f.recordErases(erased, f.lastUpdate+spent, false)
		}
		f.meter.AccrueSlot(energy.SlotErase, f.p.WriteW, spent)
	}
	f.meter.AccrueSlot(energy.SlotStandby, f.p.StandbyW, gap-spent)
	f.lastUpdate = now
}

// EraseCounts implements device.WearReporter. The SDP controller
// wear-levels internally, so erasures are reported as uniformly spread
// across all sectors.
func (f *FlashDisk) EraseCounts() []int64 {
	per := f.totalErases / f.totalSectors
	rem := f.totalErases % f.totalSectors
	counts := make([]int64, f.totalSectors)
	for i := range counts {
		counts[i] = per
		if int64(i) < rem {
			counts[i]++
		}
	}
	return counts
}

// EnduranceCycles implements device.WearReporter.
func (f *FlashDisk) EnduranceCycles() int64 { return f.p.EnduranceCycles }

var (
	_ device.Device       = (*FlashDisk)(nil)
	_ device.WearReporter = (*FlashDisk)(nil)
	_ device.Crasher      = (*FlashDisk)(nil)
)
