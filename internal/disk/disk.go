// Package disk models a magnetic hard disk with power management: a
// spinning/sleeping state machine driven by a spin-down policy, spin-up
// delays and energy on wake, and the paper's seek-avoidance assumption for
// repeated accesses to the same file (§4.2).
package disk

import (
	"fmt"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// sameFileLatencyFraction is the share of the full random-access latency
// charged when the previous operation touched the same file: the seek is
// avoided but controller overhead and rotational latency remain (§4.2:
// "Repeated accesses to the same file are assumed never to require a seek
// ... Each transfer requires the average rotational latency as well").
const sameFileLatencyFraction = 0.35

// sequentialLatencyFraction is charged when an access continues exactly
// where the previous one ended in the same file: track-buffer read-ahead
// and contiguous layout leave only controller overhead.
const sequentialLatencyFraction = 0.10

// state is the disk power state.
type state uint8

const (
	spinning state = iota
	sleeping
)

// Disk is a magnetic hard disk device model.
type Disk struct {
	p        device.DiskParams
	policy   SpinPolicy
	spinDown units.Time // current effective spin-down threshold; 0 = never
	meter    *energy.Meter

	sleepStart units.Time // when the current sleep began

	st          state
	lastUpdate  units.Time // energy integrated up to this instant
	idleSince   units.Time // start of the current idle period (while spinning)
	busyUntil   units.Time // completion time of the last host operation
	bgBusyUntil units.Time // completion time of the last background write
	spinUpUntil units.Time // platters reach speed at this instant

	lastFile    uint32
	hasLastFile bool
	lastEnd     units.Bytes // device address one past the last access

	spinUps   int64
	spinDowns int64

	// xferMemo caches transfer times at the fixed media bandwidth;
	// results are bit-identical to calling units.TransferTime directly.
	xferMemo units.TransferMemo

	// Observability (nil-safe no-ops without a scope).
	sc         *obs.Scope
	evName     string // cached Name() for event emission
	cSpinUps   *obs.Counter
	cSpinDowns *obs.Counter
	cOps       *obs.Counter
	hSleepMs   *obs.Histogram

	// inj injects transient I/O errors; nil disables fault handling at the
	// cost of one nil check per access.
	inj *fault.Injector
}

// Option configures a Disk.
type Option func(*Disk)

// WithSpinDown sets a fixed host spin-down timeout. Zero keeps the disk
// spinning forever. The paper's simulations use 5 s "except where noted".
// If the drive has a firmware timeout (Kittyhawk), the effective threshold
// is the smaller of the two.
func WithSpinDown(threshold units.Time) Option {
	return WithPolicy(FixedThreshold{Threshold: threshold})
}

// WithPolicy installs a spin-down policy (fixed, immediate, adaptive). The
// drive's firmware timeout, if any, still caps the effective threshold.
func WithPolicy(p SpinPolicy) Option {
	return func(d *Disk) {
		d.policy = p
		d.refreshThreshold()
	}
}

// WithScope attaches an observability scope: spin-up/spin-down counters and
// events, and a histogram of sleep durations. A nil scope is free.
func WithScope(sc *obs.Scope) Option {
	return func(d *Disk) {
		d.sc = sc
		d.evName = d.Name()
		d.cSpinUps = sc.Counter("disk.spin_ups")
		d.cSpinDowns = sc.Counter("disk.spin_downs")
		d.cOps = sc.Counter("disk.ops")
		d.hSleepMs = sc.Histogram("disk.sleep_ms")
	}
}

// WithFaults attaches a fault injector: transient read/write errors are
// retried with exponential backoff, charging full service energy for every
// physical attempt and idle energy for the backoff. A nil injector is free.
func WithFaults(in *fault.Injector) Option {
	return func(d *Disk) { d.inj = in }
}

// refreshThreshold re-evaluates the policy and applies the firmware cap.
func (d *Disk) refreshThreshold() {
	d.spinDown = d.policy.NextSpinDown()
	if fw := d.p.FirmwareSpinDown; fw > 0 && (d.spinDown == 0 || fw < d.spinDown) {
		d.spinDown = fw
	}
}

// New builds a disk. The disk starts spinning at time zero.
func New(p device.DiskParams, opts ...Option) (*Disk, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Disk{
		p:        p,
		policy:   FixedThreshold{},
		meter:    energy.NewMeter(),
		st:       spinning,
		xferMemo: units.NewTransferMemo(p.TransferKBs),
	}
	d.refreshThreshold()
	for _, o := range opts {
		o(d)
	}
	if d.evName == "" {
		d.evName = d.Name()
	}
	return d, nil
}

// Name implements device.Device.
func (d *Disk) Name() string { return fmt.Sprintf("%s-%s", d.p.Name, d.p.Source) }

// Meter implements device.Device.
func (d *Disk) Meter() *energy.Meter { return d.meter }

// SpinUps returns the number of spin-ups performed.
func (d *Disk) SpinUps() int64 { return d.spinUps }

// SpinDowns returns the number of spin-downs performed.
func (d *Disk) SpinDowns() int64 { return d.spinDowns }

// Spinning reports whether the platters are spinning at the given instant,
// assuming no intervening operations. Used by the SRAM write buffer for
// opportunistic flushing.
func (d *Disk) Spinning(now units.Time) bool {
	if now < d.busyUntil || now < d.bgBusyUntil {
		return true
	}
	if d.st == sleeping {
		return false
	}
	return d.spinDown == 0 || now < d.idleSince+d.spinDown
}

// Background performs a write off the host's critical path (SRAM buffer
// drains): it spins the disk up if needed and charges the same time and
// energy as Access, but does not delay subsequent host operations — real
// drives service host requests ahead of background writeback. Returns the
// completion time of the background write.
func (d *Disk) Background(req device.Request) units.Time {
	return d.serve(req, &d.bgBusyUntil)
}

// Idle implements device.Device: integrates idle/sleep energy and applies
// the spin-down policy up to now.
func (d *Disk) Idle(now units.Time) { d.advance(now) }

// Finish implements device.Device.
func (d *Disk) Finish(now units.Time) { d.advance(now) }

// Access implements device.Device.
func (d *Disk) Access(req device.Request) units.Time {
	if req.Op == trace.Delete {
		// File deletion is a metadata operation handled above the device.
		d.hasLastFile = false
		return req.Time
	}
	completion := d.serve(req, &d.busyUntil)
	d.cOps.Inc()
	return completion
}

// serve services req after the work already queued on *queue (the host
// queue's busyUntil or the background queue's bgBusyUntil), waking the disk
// if it is asleep, and moves *queue to the completion time it returns.
func (d *Disk) serve(req device.Request, queue *units.Time) units.Time {
	start := units.Max(req.Time, *queue)
	d.advance(start)

	// Wake the disk if it is asleep; if the other queue already started
	// the spin-up, wait only for the platters to reach speed.
	if d.st == sleeping {
		d.wake(start)
		start += d.p.SpinUpTime
		d.spinUpUntil = start
	} else if start < d.spinUpUntil {
		start = d.spinUpUntil
	}

	service := d.serviceTime(req)
	d.meter.Accrue(energy.StateActive, d.p.ActiveW, service)
	if d.inj != nil {
		service += d.retry(req, service, start)
	}
	completion := start + service

	// Work on the other queue may already have advanced the energy clock
	// past this completion; never move it backwards.
	if completion > d.lastUpdate {
		d.lastUpdate = completion
	}
	if completion > d.idleSince {
		d.idleSince = completion
	}
	*queue = completion
	d.lastFile = req.File
	d.hasLastFile = true
	return completion
}

// retry applies the injector's transient-fault schedule to one operation:
// the extra service time of the retried attempts (each charged at full
// active power — the platters keep turning, heads re-seek) plus the backoff
// waits between them (charged at idle power). Returns the added time.
func (d *Disk) retry(req device.Request, service, start units.Time) units.Time {
	att, backoff := d.inj.Attempts(fault.FromTraceOp(req.Op), d.evName, start)
	if att <= 1 {
		return 0
	}
	extra := service * units.Time(att-1)
	d.meter.Accrue(energy.StateActive, d.p.ActiveW, extra)
	d.meter.Accrue(energy.StateIdle, d.p.IdleW, backoff)
	return extra + backoff
}

// Crash implements device.Crasher: a power failure halts the spindle and
// clears queued work. The platters are non-volatile, so no data is lost;
// the spin-up on the next access is the crash's lasting cost.
func (d *Disk) Crash(at units.Time) {
	d.advance(at)
	if d.st == spinning {
		d.st = sleeping
		d.sleepStart = at
	}
	// Pending completions were already returned to callers; the restarted
	// device no longer owes them work.
	if d.busyUntil > at {
		d.busyUntil = at
	}
	if d.bgBusyUntil > at {
		d.bgBusyUntil = at
	}
	if d.spinUpUntil > at {
		d.spinUpUntil = at
	}
	d.hasLastFile = false
}

// Recover implements device.Crasher: the disk needs no repair pass and
// spins up lazily on the next access.
func (d *Disk) Recover(at units.Time) units.Time { return at }

// wake spins the disk up at the given instant, charging spin-up energy and
// feeding the observed sleep duration back to the policy.
func (d *Disk) wake(at units.Time) {
	d.meter.Accrue(energy.StateSpinUp, d.p.SpinUpW, d.p.SpinUpTime)
	d.st = spinning
	d.spinUps++
	slept := at - d.sleepStart
	if slept < 0 {
		slept = 0
	}
	d.cSpinUps.Inc()
	d.hSleepMs.Observe(slept)
	if d.sc.Wants(obs.EvDiskSpinUp) {
		d.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvDiskSpinUp, Dev: d.evName, Dur: int64(slept)})
	}
	d.policy.OnSpinUp(slept)
	d.refreshThreshold()
}

// serviceTime returns seek/rotation/controller overhead plus transfer time.
func (d *Disk) serviceTime(req device.Request) units.Time {
	latency := d.p.AccessLatency
	if d.hasLastFile && req.File == d.lastFile {
		if req.Addr == d.lastEnd {
			latency = units.Time(float64(latency) * sequentialLatencyFraction)
		} else {
			latency = units.Time(float64(latency) * sameFileLatencyFraction)
		}
	}
	d.lastEnd = req.Addr + req.Size
	return latency + d.xferMemo.Time(req.Size)
}

// advance integrates energy from lastUpdate to now, spinning down when the
// idle period crosses the threshold.
func (d *Disk) advance(now units.Time) {
	if now <= d.lastUpdate {
		return
	}
	switch d.st {
	case spinning:
		if d.spinDown > 0 {
			downAt := d.idleSince + d.spinDown
			if now > downAt {
				if downAt > d.lastUpdate {
					d.meter.Accrue(energy.StateIdle, d.p.IdleW, downAt-d.lastUpdate)
				} else {
					downAt = d.lastUpdate
				}
				d.meter.Accrue(energy.StateSleep, d.p.SleepW, now-downAt)
				d.st = sleeping
				d.sleepStart = downAt
				d.spinDowns++
				d.cSpinDowns.Inc()
				if d.sc.Wants(obs.EvDiskSpinDown) {
					d.sc.Emit(obs.Event{T: int64(downAt), Kind: obs.EvDiskSpinDown, Dev: d.evName, Dur: int64(d.spinDown)})
				}
				d.lastUpdate = now
				return
			}
		}
		d.meter.Accrue(energy.StateIdle, d.p.IdleW, now-d.lastUpdate)
	case sleeping:
		d.meter.Accrue(energy.StateSleep, d.p.SleepW, now-d.lastUpdate)
	}
	d.lastUpdate = now
}

var (
	_ device.Device  = (*Disk)(nil)
	_ device.Spinner = (*Disk)(nil)
	_ device.Crasher = (*Disk)(nil)
)
