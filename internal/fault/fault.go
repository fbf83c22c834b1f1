package fault

import (
	"fmt"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// Op classifies the physical operation a transient fault applies to.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	OpErase
)

// String names the op ("read", "write", "erase").
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// FromTraceOp maps a trace operation to its fault class (deletes are
// metadata-only and never reach the media; they map to OpWrite but devices
// do not draw for them).
func FromTraceOp(op trace.Op) Op {
	if op == trace.Read {
		return OpRead
	}
	return OpWrite
}

// Report summarizes one run's injected faults and the device responses. It
// is deterministic for a given trace, plan, and seed.
type Report struct {
	// ReadFaults, WriteFaults, and EraseFaults count failed physical
	// attempts by operation class.
	ReadFaults  int64
	WriteFaults int64
	EraseFaults int64
	// Retries counts the extra physical attempts devices performed.
	Retries int64
	// Exhausted counts operations that failed even on their final allowed
	// attempt (the op completes anyway — a trace replay cannot branch — but
	// a real stack would have surfaced an I/O error here).
	Exhausted int64
	// BackoffTime is the cumulative simulated time spent backing off.
	BackoffTime units.Time
	// Remaps counts erase units retired to spares after wear-out.
	Remaps int64
	// SparesExhausted counts wear-out deaths past the spare pool: each one
	// degrades usable capacity (or, when capacity cannot shrink further,
	// keeps a worn unit in service).
	SparesExhausted int64
	// Reclaims counts retired erase units pressed back into service under
	// capacity pressure: live data grew past what the surviving units could
	// hold, so the controller reused the least-worn retired unit rather
	// than wedge its cleaner.
	Reclaims int64
	// PowerFailures counts injected power failures.
	PowerFailures int64
	// ReplayedBlocks counts blocks the recovery pass replayed from
	// battery-backed SRAM after power failures.
	ReplayedBlocks int64
	// LostWrites counts acknowledged-but-lost writes across power failures.
	// Non-zero only in configurations that volunteer for data loss (the
	// write-back DRAM ablation); anything else is an invariant violation.
	LostWrites int64
	// DeviceDeaths counts whole-device deaths (die_at_us / die_after_erases
	// in per-member plans).
	DeviceDeaths int64
	// LatentSeeded counts blocks silently poisoned at write time by
	// latent_error_rate; LatentFaults counts the subset that later surfaced
	// on a read and was scrubbed. Seeded ≥ surfaced — blocks overwritten or
	// never re-read keep their poison latent, exactly the silent-rot hazard
	// the model exists to expose.
	LatentSeeded int64
	LatentFaults int64
	// BacklogCarried counts interrupted cleaning jobs carried across power
	// failures (carry_cleaning_backlog); BacklogTime is the total recovery
	// time spent draining them.
	BacklogCarried int64
	BacklogTime    units.Time
	// Rebuilds counts mirror-member rebuilds after a device death;
	// RebuildTime is the total simulated time the rebuilds occupied.
	Rebuilds    int64
	RebuildTime units.Time
	// Violations lists recovery-invariant violations. Always empty unless
	// the simulator is broken: tests fail on non-empty, they do not log.
	Violations []string
}

// Merge folds another report into r: counters add, violations append.
// Core uses it to aggregate per-member injector reports under an array
// into the run's single Result.Faults.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	r.ReadFaults += o.ReadFaults
	r.WriteFaults += o.WriteFaults
	r.EraseFaults += o.EraseFaults
	r.Retries += o.Retries
	r.Exhausted += o.Exhausted
	r.BackoffTime += o.BackoffTime
	r.Remaps += o.Remaps
	r.SparesExhausted += o.SparesExhausted
	r.Reclaims += o.Reclaims
	r.PowerFailures += o.PowerFailures
	r.ReplayedBlocks += o.ReplayedBlocks
	r.LostWrites += o.LostWrites
	r.DeviceDeaths += o.DeviceDeaths
	r.LatentSeeded += o.LatentSeeded
	r.LatentFaults += o.LatentFaults
	r.BacklogCarried += o.BacklogCarried
	r.BacklogTime += o.BacklogTime
	r.Rebuilds += o.Rebuilds
	r.RebuildTime += o.RebuildTime
	r.Violations = append(r.Violations, o.Violations...)
}

// Injector makes every fault decision for one run: deterministic draws from
// a seeded generator, observability emission, and the invariant ledger.
// A nil *Injector is valid and injects nothing; device hot paths guard with
// one nil check.
type Injector struct {
	plan  Plan
	state uint64 // splitmix64 state

	rep Report

	// latent holds the block indices silently poisoned at write time by
	// LatentErrorRate, awaiting a read to surface them. One injector serves
	// one seeding device (core builds one injector per array member), so a
	// bare block index is an unambiguous key. Allocated lazily on the first
	// seeded block.
	latent map[int64]struct{}

	// Observability (nil-safe no-ops without a scope).
	sc          *obs.Scope
	cInjected   *obs.Counter
	cRetries    *obs.Counter
	cExhausted  *obs.Counter
	cRemaps     *obs.Counter
	cReclaims   *obs.Counter
	cPowerFails *obs.Counter
	cReplayed   *obs.Counter
	cLost       *obs.Counter
	cDeaths     *obs.Counter
	cLatent     *obs.Counter
	cBacklog    *obs.Counter
	cRebuilds   *obs.Counter
}

// NewInjector builds an injector for the plan. A nil or do-nothing plan
// returns nil, which keeps the fault-free hot path byte-identical to a
// build without fault injection at all.
func NewInjector(p *Plan, seed int64, sc *obs.Scope) *Injector {
	if !p.Enabled() {
		return nil
	}
	in := &Injector{
		plan: *p,
		// Mix the seed so seeds 0 and 1 do not share a low-entropy prefix.
		state:       uint64(seed) ^ 0x6a09e667f3bcc909,
		sc:          sc,
		cInjected:   sc.Counter("fault.injected"),
		cRetries:    sc.Counter("fault.retries"),
		cExhausted:  sc.Counter("fault.exhausted"),
		cRemaps:     sc.Counter("fault.remaps"),
		cReclaims:   sc.Counter("fault.reclaims"),
		cPowerFails: sc.Counter("fault.power_failures"),
		cReplayed:   sc.Counter("fault.replayed_blocks"),
		cLost:       sc.Counter("fault.lost_writes"),
		cDeaths:     sc.Counter("fault.device_deaths"),
		cLatent:     sc.Counter("fault.latent_surfaced"),
		cBacklog:    sc.Counter("fault.backlog_carried"),
		cRebuilds:   sc.Counter("fault.rebuilds"),
	}
	return in
}

// next is splitmix64: a tiny, allocation-free generator whose sequence is
// fixed by this code, not by the Go release — the determinism guarantee
// must survive toolchain upgrades.
func (in *Injector) next() uint64 {
	in.state += 0x9e3779b97f4a7c15
	z := in.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (in *Injector) float64() float64 {
	return float64(in.next()>>11) / (1 << 53)
}

// rate returns the transient error rate for the op class.
func (in *Injector) rate(op Op) float64 {
	switch op {
	case OpRead:
		return in.plan.ReadErrorRate
	case OpWrite:
		return in.plan.WriteErrorRate
	default:
		return in.plan.EraseErrorRate
	}
}

// Attempts draws the physical-attempt schedule for one device operation:
// how many attempts the device performs (≥ 1) and the total backoff delay
// between them. The device charges full service time and energy for every
// attempt and idle/standby energy for the backoff, so retries surface in
// latency and energy results. Nil-safe: a nil injector returns (1, 0).
func (in *Injector) Attempts(op Op, dev string, at units.Time) (attempts int64, backoff units.Time) {
	return in.retry(op, dev, at, false)
}

// DeadAttempts charges the full failed retry schedule against a dead
// device: every attempt fails (no random draw — the device is gone), the
// op is counted exhausted, and the caller pays the whole exponential
// backoff. The striped array uses it for a dead member's share of an
// access. Nil-safe.
func (in *Injector) DeadAttempts(op Op, dev string, at units.Time) (attempts int64, backoff units.Time) {
	return in.retry(op, dev, at, true)
}

// retry runs one operation's bounded retry loop. Each attempt fails on a
// draw below the op's error rate, or without a draw when dead; a failed
// attempt is counted and traced, and all but the last pay the next
// backoff.
func (in *Injector) retry(op Op, dev string, at units.Time, dead bool) (attempts int64, backoff units.Time) {
	if in == nil {
		return 1, 0
	}
	rate := in.rate(op)
	if !dead && rate <= 0 {
		return 1, 0
	}
	limit := in.plan.maxRetries() + 1
	traceFault, traceRetry := in.sc.Wants(obs.EvFaultInjected), in.sc.Wants(obs.EvRetryAttempt)
	for a := 1; a <= limit; a++ {
		if !dead && in.float64() >= rate {
			return int64(a), backoff // attempt a succeeded
		}
		in.countFault(op)
		if traceFault {
			in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvFaultInjected, Dev: dev,
				Addr: int64(op), Size: int64(a)})
		}
		if a == limit {
			// Out of retries: the op is taken as completed so the replay can
			// continue, but the exhaustion is counted — a real stack would
			// have returned EIO here.
			in.rep.Exhausted++
			in.cExhausted.Inc()
			break
		}
		d := in.plan.backoff(a)
		backoff += d
		in.rep.Retries++
		in.rep.BackoffTime += d
		in.cRetries.Inc()
		if traceRetry {
			in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvRetryAttempt, Dev: dev,
				Addr: int64(op), Size: int64(a + 1), Dur: int64(d)})
		}
	}
	return int64(limit), backoff
}

// countFault records one failed physical attempt.
func (in *Injector) countFault(op Op) {
	switch op {
	case OpRead:
		in.rep.ReadFaults++
	case OpWrite:
		in.rep.WriteFaults++
	default:
		in.rep.EraseFaults++
	}
	in.cInjected.Inc()
}

// WornOut reports whether an erase unit with the given cumulative erase
// count has crossed the plan's wear-out threshold. Nil-safe.
func (in *Injector) WornOut(erases int64) bool {
	return in != nil && in.plan.WearOutAfter > 0 && erases >= in.plan.WearOutAfter
}

// WearOutEvery returns the plan's wear-out threshold (0 = disabled).
// Devices with internal uniform wear leveling (the flash disk) retire one
// unit per WearOutEvery total erasures. Nil-safe.
func (in *Injector) WearOutEvery() int64 {
	if in == nil {
		return 0
	}
	return in.plan.WearOutAfter
}

// SpareUnits returns the plan's spare-unit provision. Nil-safe.
func (in *Injector) SpareUnits() int {
	if in == nil {
		return 0
	}
	return in.plan.SpareSegments
}

// RecordRemap records a worn-out erase unit retired to a spare. spares is
// the remaining spare count after the remap.
func (in *Injector) RecordRemap(dev string, unit, spares int64, at units.Time) {
	if in == nil {
		return
	}
	in.rep.Remaps++
	in.cRemaps.Inc()
	if in.sc.Wants(obs.EvRemap) {
		in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvRemap, Dev: dev,
			Addr: unit, Size: spares})
	}
}

// RecordSpareExhausted records a wear-out death past the spare pool.
func (in *Injector) RecordSpareExhausted(dev string, unit int64, at units.Time) {
	if in == nil {
		return
	}
	in.rep.SparesExhausted++
	if in.sc.Wants(obs.EvRemap) {
		in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvRemap, Dev: dev,
			Addr: unit, Size: -1})
	}
}

// RecordReclaim records a retired erase unit pressed back into service
// because the surviving units could no longer hold the live data plus the
// cleaning reserve.
func (in *Injector) RecordReclaim(dev string, unit int64, at units.Time) {
	if in == nil {
		return
	}
	in.rep.Reclaims++
	in.cReclaims.Inc()
	if in.sc.Wants(obs.EvReclaim) {
		in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvReclaim, Dev: dev, Addr: unit})
	}
}

// PowerFailSchedule returns the planned power failures, sorted and
// deduplicated. Nil-safe.
func (in *Injector) PowerFailSchedule() []units.Time {
	if in == nil {
		return nil
	}
	return in.plan.schedule()
}

// RecordPowerFail records one injected power failure.
func (in *Injector) RecordPowerFail(at units.Time) {
	if in == nil {
		return
	}
	in.rep.PowerFailures++
	in.cPowerFails.Inc()
	if in.sc.Wants(obs.EvPowerFail) {
		in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvPowerFail})
	}
}

// RecordReplay records the recovery pass replaying blocks from
// battery-backed SRAM after a power failure.
func (in *Injector) RecordReplay(dev string, blocks int64, at, dur units.Time) {
	if in == nil || blocks == 0 {
		return
	}
	in.rep.ReplayedBlocks += blocks
	in.cReplayed.Add(blocks)
	if in.sc.Wants(obs.EvRecoveryReplayed) {
		in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvRecoveryReplayed, Dev: dev,
			Size: blocks, Dur: int64(dur)})
	}
}

// RecordLostWrites records acknowledged writes lost to a power failure.
func (in *Injector) RecordLostWrites(n int64, at units.Time) {
	if in == nil || n == 0 {
		return
	}
	in.rep.LostWrites += n
	in.cLost.Add(n)
}

// Violatef records a recovery-invariant violation. Violations mean the
// simulator itself is broken; tests fail on any.
func (in *Injector) Violatef(format string, args ...any) {
	if in == nil {
		return
	}
	in.rep.Violations = append(in.rep.Violations, fmt.Sprintf(format, args...))
}

// Report returns a copy of the accumulated fault report.
func (in *Injector) Report() *Report {
	if in == nil {
		return nil
	}
	rep := in.rep
	rep.Violations = append([]string(nil), in.rep.Violations...)
	return &rep
}

// DieAt returns the plan's scheduled device-death instant (0 = none).
// Nil-safe.
func (in *Injector) DieAt() units.Time {
	if in == nil {
		return 0
	}
	return units.Time(in.plan.DieAtUs)
}

// DieAfterErases returns the erase count at which the device dies
// (0 = no endurance death). Nil-safe.
func (in *Injector) DieAfterErases() int64 {
	if in == nil {
		return 0
	}
	return in.plan.DieAfterErases
}

// RecordDeath records a whole-device death. eraseDeath distinguishes an
// endurance death (die_after_erases) from a scheduled one (die_at_us).
func (in *Injector) RecordDeath(dev string, member int64, eraseDeath bool, at units.Time) {
	if in == nil {
		return
	}
	in.rep.DeviceDeaths++
	in.cDeaths.Inc()
	if in.sc.Wants(obs.EvDeviceDie) {
		size := int64(0)
		if eraseDeath {
			size = 1
		}
		in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvDeviceDie, Dev: dev,
			Addr: member, Size: size})
	}
}

// SeedLatent draws a latent-fault decision for each block in [first, last]
// just written: with probability LatentErrorRate the block is silently
// poisoned, to surface on a later read. The write itself completes
// normally — that is the point. Nil-safe; free when the rate is zero.
func (in *Injector) SeedLatent(first, last int64) {
	if in == nil || in.plan.LatentErrorRate <= 0 {
		return
	}
	for b := first; b <= last; b++ {
		if in.float64() < in.plan.LatentErrorRate {
			if in.latent == nil {
				in.latent = make(map[int64]struct{})
			}
			in.latent[b] = struct{}{}
			in.rep.LatentSeeded++
		} else {
			// An overwrite of a previously poisoned block refreshes the
			// charge: the new program operation stores clean data.
			delete(in.latent, b)
		}
	}
}

// SurfaceLatent checks a read of blocks [first, last] against the latent
// set and scrubs any poisoned blocks it finds: each one is cleared,
// counted, and reported so the device can charge the scrub penalty
// (re-read + in-place rewrite) on this read's latency. Returns the number
// of blocks surfaced. Nil-safe; free when nothing was ever seeded.
func (in *Injector) SurfaceLatent(dev string, first, last int64, at, penalty units.Time) int64 {
	if in == nil || len(in.latent) == 0 {
		return 0
	}
	var n, firstHit int64
	firstHit = -1
	for b := first; b <= last; b++ {
		if _, ok := in.latent[b]; ok {
			delete(in.latent, b)
			if firstHit < 0 {
				firstHit = b
			}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	in.rep.LatentFaults += n
	in.cLatent.Add(n)
	if in.sc.Wants(obs.EvFaultLatent) {
		in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvFaultLatent, Dev: dev,
			Addr: firstHit, Size: n, Dur: int64(penalty * units.Time(n))})
	}
	return n
}

// LatentPending returns how many poisoned blocks are still waiting to
// surface — silent rot the workload has not yet re-read. Nil-safe.
func (in *Injector) LatentPending() int64 {
	if in == nil {
		return 0
	}
	return int64(len(in.latent))
}

// CarryBacklog reports whether the plan preserves in-flight cleaning
// state across power failures. Nil-safe.
func (in *Injector) CarryBacklog() bool {
	return in != nil && in.plan.CarryCleaningBacklog
}

// RecordBacklog records an interrupted cleaning job carried across a
// power failure and drained during recovery. victim is the cleaning
// victim segment, live the blocks still to relocate at the crash, drain
// the recovery time the drain added.
func (in *Injector) RecordBacklog(dev string, victim, live int64, at, drain units.Time) {
	if in == nil {
		return
	}
	in.rep.BacklogCarried++
	in.rep.BacklogTime += drain
	in.cBacklog.Inc()
	if in.sc.Wants(obs.EvCleaningBacklog) {
		in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvCleaningBacklog, Dev: dev,
			Addr: victim, Size: live, Dur: int64(drain)})
	}
}

// RecordDegraded records a mirrored array degrading after a member death.
func (in *Injector) RecordDegraded(dev string, member, survivors int64, at units.Time) {
	if in == nil {
		return
	}
	if in.sc.Wants(obs.EvArrayDegraded) {
		in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvArrayDegraded, Dev: dev,
			Addr: member, Size: survivors})
	}
}

// RecordRebuild records a mirror rebuild onto a replacement member.
func (in *Injector) RecordRebuild(dev string, member, blocks int64, at, dur units.Time) {
	if in == nil {
		return
	}
	in.rep.Rebuilds++
	in.rep.RebuildTime += dur
	in.cRebuilds.Inc()
	if in.sc.Wants(obs.EvArrayRebuild) {
		in.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvArrayRebuild, Dev: dev,
			Addr: member, Size: blocks, Dur: int64(dur)})
	}
}
