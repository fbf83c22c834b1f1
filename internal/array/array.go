// Package array implements composite storage devices: N member devices
// behind the ordinary device.Device interface, striped or mirrored, where
// each member carries its own fault domain (fault.PlanSet). The paper
// compares single devices; at fleet scale the same question becomes a
// robustness one — what happens when one member of an array dies or
// silently rots while the system must keep serving?
//
//   - A mirror fans every write to all live members (completion = the
//     slowest replica) and serves reads from the first ready member. When
//     a member dies the array degrades to the survivors, and — when a
//     replacement factory is configured — rebuilds onto a fresh member,
//     copying the acknowledged data off a survivor in the background.
//   - A stripe distributes the block address space round-robin across
//     members. A dead member's share of an access surfaces as a bounded
//     retry/backoff penalty (counted exhausted — a real stack would have
//     returned EIO), because a trace replay cannot branch on failure.
//
// The array keeps an acknowledged-write ledger and proves, at every death
// and every crash recovery, that no acknowledged write is lost while at
// least one mirror member still holds it; violations land on the fault
// report exactly like the core's other recovery invariants.
package array

import (
	"fmt"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// Mode selects the array topology.
type Mode uint8

const (
	// Mirror replicates every write on all members.
	Mirror Mode = iota
	// Stripe distributes the block address space round-robin.
	Stripe
)

// String names the mode ("mirror", "stripe").
func (m Mode) String() string {
	if m == Stripe {
		return "stripe"
	}
	return "mirror"
}

// Member is one array slot: a constructed device plus its own fault
// injector (nil = fault-free member) and an optional replacement factory
// for mirror rebuilds.
type Member struct {
	Dev device.Device
	Inj *fault.Injector
	// Replace builds a fresh healthy device for this slot after a death
	// (mirror rebuild); nil leaves the array degraded.
	Replace func() (device.Device, error)
}

// Config assembles an array.
type Config struct {
	Mode      Mode
	BlockSize units.Bytes
	// SysInj, when non-nil, is the run's system-level injector: array
	// invariant violations are recorded there so they surface on the same
	// report as the core's. Without it the array keeps its own ledger,
	// merged into FaultReport.
	SysInj *fault.Injector
}

// member is a Member plus its runtime fault-domain state.
type member struct {
	Member
	name string
	// dead marks a member that is currently not serving; died marks a
	// slot whose one death already fired (a rebuilt slot does not die
	// twice — the replacement carries no fault plan).
	dead bool
	died bool
	// readyAt gates reads from a rebuilt member: it takes writes
	// immediately (to stay in sync) but serves reads only once the
	// rebuild copy has finished.
	readyAt units.Time
}

// Array is a composite device. It implements device.Device,
// device.Crasher, and device.Composite.
type Array struct {
	mode      Mode
	blockSize units.Bytes
	members   []member
	// retired holds devices replaced after a death: their energy and wear
	// still belong to the run.
	retired []device.Device
	sysInj  *fault.Injector

	// acked is the acknowledged-write ledger: one bit per array block,
	// set when a write completes, cleared on delete. The recovery
	// invariant checks every set bit against the surviving members.
	acked    []uint64
	ackedLen int64

	violations []string

	// mayDie is true when any member has a death scheduled (die_at_us or
	// die_after_erases) — the plans are static, so a false here means
	// checkDeaths can never fire and is skipped entirely.
	mayDie bool
	// trackAcks gates the acknowledged-write ledger: it is only ever
	// consulted at member deaths and crash recoveries, so when neither
	// can happen (no scheduled deaths, no planned power failures) the
	// per-write bookkeeping is pure overhead and is skipped.
	trackAcks bool
	// staticFast is true for a mirror none of whose members can ever die:
	// then no member is ever dead or rebuilding, so the read primary is
	// always member 0.
	staticFast bool

	meter *energy.Meter // interface compliance; always empty — see Meters

	evName string
}

// dataHolder and backgrounder are the optional member capabilities the
// array uses when present, kept as local interfaces so the package depends
// only on device.
type dataHolder interface {
	HasData(addr, size units.Bytes) bool
}
type backgrounder interface {
	Background(req device.Request) units.Time
}

// New assembles an array over constructed members. Mirror allows N ≥ 1
// (a 1-member mirror is the wrapper-overhead baseline); stripe needs
// N ≥ 2 to stripe anything.
func New(cfg Config, members []Member) (*Array, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("array: block size must be positive")
	}
	min := 1
	if cfg.Mode == Stripe {
		min = 2
	}
	if len(members) < min {
		return nil, fmt.Errorf("array: %s needs at least %d members, have %d", cfg.Mode, min, len(members))
	}
	a := &Array{
		mode:      cfg.Mode,
		blockSize: cfg.BlockSize,
		sysInj:    cfg.SysInj,
		meter:     energy.NewMeter(),
	}
	for i, m := range members {
		if m.Dev == nil {
			return nil, fmt.Errorf("array: member %d has no device", i)
		}
		a.members = append(a.members, member{
			Member: m,
			name:   fmt.Sprintf("m%d:%s", i, m.Dev.Name()),
		})
		if m.Inj.DieAt() > 0 || m.Inj.DieAfterErases() > 0 {
			a.mayDie = true
		}
	}
	a.trackAcks = a.mayDie || len(cfg.SysInj.PowerFailSchedule()) > 0
	a.staticFast = cfg.Mode == Mirror && !a.mayDie
	a.evName = a.Name()
	return a, nil
}

// Name identifies the array and its members.
func (a *Array) Name() string {
	return fmt.Sprintf("%s:%dx%s", a.mode, len(a.members), a.members[0].Dev.Name())
}

// Meter returns the array's own (always empty) meter for interface
// compliance; real energy lives on the member meters — use Meters.
func (a *Array) Meter() *energy.Meter { return a.meter }

// Meters returns the meter of every part (see Parts).
func (a *Array) Meters() []*energy.Meter {
	parts := a.Parts()
	ms := make([]*energy.Meter, len(parts))
	for i, d := range parts {
		ms[i] = d.Meter()
	}
	return ms
}

// Parts implements device.Composite: the current members in slot order,
// then the devices replaced after a death — their energy, counters and
// wear up to the death still belong to the run.
func (a *Array) Parts() []device.Device {
	out := make([]device.Device, 0, len(a.members)+len(a.retired))
	for i := range a.members {
		out = append(out, a.members[i].Dev)
	}
	return append(out, a.retired...)
}

// violatef records an array invariant violation on the system injector
// when present, and always on the array's own ledger (merged into
// FaultReport), so the violation is never lost to a fault-free run.
func (a *Array) violatef(format string, args ...any) {
	a.violations = append(a.violations, fmt.Sprintf(format, args...))
	a.sysInj.Violatef(format, args...)
}

// FaultReport merges the member injectors' reports plus the array's own
// violations. Nil when nothing was recorded anywhere.
func (a *Array) FaultReport() *fault.Report {
	var rep *fault.Report
	for i := range a.members {
		if r := a.members[i].Inj.Report(); r != nil {
			if rep == nil {
				rep = &fault.Report{}
			}
			rep.Merge(r)
		}
	}
	if len(a.violations) > 0 {
		if rep == nil {
			rep = &fault.Report{}
		}
		// The system injector already carries these when present; the
		// array's copy covers fault-free configs. Core deduplicates by
		// preferring the system report's violations.
		if a.sysInj == nil {
			rep.Violations = append(rep.Violations, a.violations...)
		}
	}
	return rep
}

// liveCount counts members currently serving.
func (a *Array) liveCount() int {
	n := 0
	for i := range a.members {
		if !a.members[i].dead {
			n++
		}
	}
	return n
}

// checkDeaths fires any member deaths due at or before now: scheduled
// instants (die_at_us) and endurance thresholds (die_after_erases). The
// last live member is never killed — a fully dead array cannot replay a
// trace; configure deaths accordingly.
func (a *Array) checkDeaths(now units.Time) {
	if !a.mayDie {
		return
	}
	for i := range a.members {
		m := &a.members[i]
		if m.died || m.dead || m.Inj == nil {
			continue
		}
		if at := m.Inj.DieAt(); at > 0 && now >= at {
			a.kill(i, at, false)
			continue
		}
		if th := m.Inj.DieAfterErases(); th > 0 {
			if ec, ok := m.Dev.(interface{ TotalErases() int64 }); ok && ec.TotalErases() >= th {
				a.kill(i, now, true)
			}
		}
	}
}

// kill retires member i at the given instant, degrades the array, and —
// for a mirror with a replacement factory — rebuilds the slot.
func (a *Array) kill(i int, at units.Time, eraseDeath bool) {
	if a.liveCount() <= 1 {
		return // never kill the last live member
	}
	m := &a.members[i]
	m.Dev.Finish(at)
	m.dead = true
	m.died = true
	m.Inj.RecordDeath(m.name, int64(i), eraseDeath, at)
	m.Inj.RecordDegraded(a.evName, int64(i), int64(a.liveCount()), at)
	if a.mode == Mirror {
		a.verifyAcked(at, "member death")
		if m.Replace != nil {
			a.rebuild(i, at)
		}
	}
}

// rebuild replaces dead member i with a fresh device and copies the
// acknowledged data onto it from the first surviving member, off both
// devices' critical paths (Background when the device supports it). The
// replacement takes new writes immediately — it must stay in sync — but
// serves reads only once the copy completes.
func (a *Array) rebuild(i int, at units.Time) {
	m := &a.members[i]
	dev, err := m.Replace()
	if err != nil {
		a.violatef("array: rebuilding member %d: %v", i, err)
		return
	}
	src := a.primaryAt(at)
	if src < 0 {
		a.violatef("array: no live member to rebuild %d from at t=%dµs", i, int64(at))
		return
	}
	a.retired = append(a.retired, m.Dev)
	m.Dev = dev
	m.dead = false
	m.name = fmt.Sprintf("m%d:%s", i, dev.Name())
	done := at
	var blocks int64
	for _, e := range a.ackedExtents() {
		addr := units.Bytes(e.first) * a.blockSize
		size := units.Bytes(e.n) * a.blockSize
		rd := bgAccess(a.members[src].Dev, device.Request{Time: at, Op: trace.Read, Addr: addr, Size: size})
		wr := bgAccess(dev, device.Request{Time: at, Op: trace.Write, Addr: addr, Size: size})
		done = units.Max(done, units.Max(rd, wr))
		blocks += e.n
	}
	m.readyAt = done
	m.Inj.RecordRebuild(a.evName, int64(i), blocks, at, done-at)
}

// bgAccess performs a rebuild copy operation off the critical path when
// the device supports background work, falling back to a foreground
// access (which contends with host I/O — also honest).
func bgAccess(dev device.Device, req device.Request) units.Time {
	if bg, ok := dev.(backgrounder); ok {
		return bg.Background(req)
	}
	return dev.Access(req)
}

// extent is a contiguous acknowledged block run.
type extent struct {
	first, n int64
}

// ackedExtents returns the acknowledged block set coalesced into
// contiguous extents, capped at 64 blocks each, in ascending block
// order — deterministic, so rebuild copy sequences reproduce exactly.
func (a *Array) ackedExtents() []extent {
	var out []extent
	var runStart, runLen int64 = -1, 0
	flush := func() {
		if runLen > 0 {
			out = append(out, extent{runStart, runLen})
		}
		runStart, runLen = -1, 0
	}
	for b := int64(0); b < a.ackedLen; b++ {
		if a.acked[b>>6]&(1<<uint(b&63)) == 0 {
			flush()
			continue
		}
		if runLen == 0 {
			runStart = b
		}
		runLen++
		if runLen == 64 {
			flush()
		}
	}
	flush()
	return out
}

// ackRange marks blocks [addr, addr+size) acknowledged. A no-op when the
// ledger can never be consulted (no member death, no power failure
// planned) — see trackAcks.
func (a *Array) ackRange(addr, size units.Bytes) {
	if !a.trackAcks {
		return
	}
	first := int64(addr / a.blockSize)
	last := int64((addr + size - 1) / a.blockSize)
	if need := last + 1; need > a.ackedLen {
		words := (need + 63) >> 6
		for int64(len(a.acked)) < words {
			a.acked = append(a.acked, 0)
		}
		a.ackedLen = need
	}
	for b := first; b <= last; b++ {
		a.acked[b>>6] |= 1 << uint(b&63)
	}
}

// unackRange clears blocks wholly covered by a delete: the data is gone
// legitimately, so the invariant no longer claims it.
func (a *Array) unackRange(addr, size units.Bytes) {
	if !a.trackAcks || size <= 0 || a.ackedLen == 0 {
		return
	}
	first := int64(addr / a.blockSize)
	last := int64((addr + size - 1) / a.blockSize)
	if last >= a.ackedLen {
		last = a.ackedLen - 1
	}
	for b := first; b <= last; b++ {
		a.acked[b>>6] &^= 1 << uint(b&63)
	}
}

// verifyAcked proves the recovery invariant: every acknowledged block is
// still present on at least one live member. Members that cannot witness
// presence (no HasData) vouch for everything — a disk holds data in
// place. Called at member deaths and crash recoveries, not per access.
func (a *Array) verifyAcked(at units.Time, when string) {
	var holders []dataHolder
	for i := range a.members {
		m := &a.members[i]
		if m.dead {
			continue
		}
		if h, ok := m.Dev.(dataHolder); ok {
			holders = append(holders, h)
		} else {
			return // an in-place device vouches for every block
		}
	}
	if len(holders) == 0 {
		return
	}
	var lost int64
	for _, e := range a.ackedExtents() {
		addr := units.Bytes(e.first) * a.blockSize
		size := units.Bytes(e.n) * a.blockSize
		held := false
		for _, h := range holders {
			if h.HasData(addr, size) {
				held = true
				break
			}
		}
		if !held {
			// Fall back per block so the count is exact.
			for b := e.first; b < e.first+e.n; b++ {
				ba := units.Bytes(b) * a.blockSize
				blockHeld := false
				for _, h := range holders {
					if h.HasData(ba, a.blockSize) {
						blockHeld = true
						break
					}
				}
				if !blockHeld {
					lost++
				}
			}
		}
	}
	if lost > 0 {
		a.violatef("array: %d acknowledged blocks lost at %s t=%dµs", lost, when, int64(at))
	}
}

// primaryAt returns the first live member ready to serve reads at the
// given instant, preferring fully rebuilt members; -1 if none.
func (a *Array) primaryAt(at units.Time) int {
	fallback := -1
	for i := range a.members {
		m := &a.members[i]
		if m.dead {
			continue
		}
		if m.readyAt <= at {
			return i
		}
		if fallback < 0 {
			fallback = i
		}
	}
	return fallback
}

// Access implements device.Device. The death check is guarded here (and
// at every other call site) rather than inside checkDeaths: its loop
// keeps it from inlining, and on a can-never-die array the call frame
// itself is the overhead.
func (a *Array) Access(req device.Request) units.Time {
	if a.mayDie {
		a.checkDeaths(req.Time)
	}
	if a.mode == Stripe {
		return a.accessStripe(req)
	}
	return a.accessMirror(req)
}

// accessMirror fans writes to every live member (completion = slowest
// replica) and reads to the primary.
func (a *Array) accessMirror(req device.Request) units.Time {
	switch req.Op {
	case trace.Delete:
		for i := range a.members {
			if !a.members[i].dead {
				a.members[i].Dev.Access(req)
			}
		}
		if a.trackAcks {
			a.unackRange(req.Addr, req.Size)
		}
		return req.Time
	case trace.Read:
		p := 0
		if !a.staticFast {
			// With deaths possible the primary must be re-resolved per
			// read; a static mirror always reads member 0.
			p = a.primaryAt(req.Time)
			if p < 0 {
				return req.Time // unreachable: the last member is never killed
			}
		}
		return a.members[p].Dev.Access(req)
	default: // trace.Write
		completion := req.Time
		for i := range a.members {
			if a.members[i].dead {
				continue
			}
			if c := a.members[i].Dev.Access(req); c > completion {
				completion = c
			}
		}
		if a.trackAcks {
			a.ackRange(req.Addr, req.Size)
		}
		// The write is acknowledged once every live replica holds it; an
		// endurance death can fire on the erases this very write caused.
		if a.mayDie {
			a.checkDeaths(completion)
		}
		return completion
	}
}

// accessStripe splits the request across the members owning its blocks.
// Each global block g lives on member g mod N at local block g div N. A
// dead member's share pays the bounded retry/backoff schedule and is
// counted exhausted — the replay cannot branch, a real stack returns EIO.
func (a *Array) accessStripe(req device.Request) units.Time {
	if req.Op == trace.Delete {
		a.forEachShare(req, func(i int, sub device.Request) {
			if !a.members[i].dead {
				a.members[i].Dev.Access(sub)
			}
		})
		return req.Time
	}
	completion := req.Time
	a.forEachShare(req, func(i int, sub device.Request) {
		m := &a.members[i]
		var c units.Time
		if m.dead {
			_, backoff := m.Inj.DeadAttempts(fault.FromTraceOp(sub.Op), m.name, sub.Time)
			c = sub.Time + backoff
		} else {
			c = m.Dev.Access(sub)
		}
		if c > completion {
			completion = c
		}
	})
	return completion
}

// forEachShare decomposes a striped request into per-member sub-requests,
// one per global block (adjacent global blocks live on different
// members), preserving partial first/last blocks.
func (a *Array) forEachShare(req device.Request, fn func(i int, sub device.Request)) {
	n := int64(len(a.members))
	bs := a.blockSize
	end := req.Addr + req.Size
	for addr := req.Addr; addr < end; {
		g := int64(addr / bs)
		blockEnd := units.Bytes(g+1) * bs
		if blockEnd > end {
			blockEnd = end
		}
		chunk := blockEnd - addr
		local := units.Bytes(g/n)*bs + (addr - units.Bytes(g)*bs)
		fn(int(g%n), device.Request{
			Time: req.Time, Op: req.Op, File: req.File, Addr: local, Size: chunk,
		})
		addr += chunk
	}
}

// Idle implements device.Device: death schedules advance and every live
// member integrates idle time and background work.
func (a *Array) Idle(now units.Time) {
	if a.mayDie {
		a.checkDeaths(now)
	}
	for i := range a.members {
		if !a.members[i].dead {
			a.members[i].Dev.Idle(now)
		}
	}
}

// Finish implements device.Device. Dead members were finished at death.
func (a *Array) Finish(now units.Time) {
	if a.mayDie {
		a.checkDeaths(now)
	}
	for i := range a.members {
		if !a.members[i].dead {
			a.members[i].Dev.Finish(now)
		}
	}
}

// Crash implements device.Crasher: the power failure hits every live
// member.
func (a *Array) Crash(at units.Time) {
	for i := range a.members {
		if m := &a.members[i]; !m.dead {
			if cr, ok := m.Dev.(device.Crasher); ok {
				cr.Crash(at)
			}
		}
	}
}

// Recover implements device.Crasher: every live member recovers
// (members recover in parallel — the array is ready when the slowest
// is), then the acknowledged-write invariant is re-proved against the
// survivors.
func (a *Array) Recover(at units.Time) units.Time {
	done := at
	for i := range a.members {
		if m := &a.members[i]; !m.dead {
			if cr, ok := m.Dev.(device.Crasher); ok {
				if d := cr.Recover(at); d > done {
					done = d
				}
			}
		}
	}
	if a.mode == Mirror {
		a.verifyAcked(at, "crash recovery")
	}
	return done
}

var (
	_ device.Device    = (*Array)(nil)
	_ device.Crasher   = (*Array)(nil)
	_ device.Composite = (*Array)(nil)
)
