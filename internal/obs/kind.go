package obs

import "strconv"

// Kind identifies an event type. Events carry it as a small integer, so a
// tracer's interest in a kind is one bit test (see KindSet) and a report
// builder dispatches with an integer switch; the wire name (String) is
// needed only where events are serialized. The zero Kind means "no kind".
type Kind uint8

// Event kinds emitted by the storage stack. Each kind's wire name is in
// kindNames; the comments say how a kind uses the payload slots.
const (
	// EvDiskSpinUp: the disk's platters start spinning. Dur = how long the
	// disk had been asleep (µs).
	EvDiskSpinUp Kind = iota + 1
	// EvDiskSpinDown: the spin-down policy put the disk to sleep. Dur = the
	// idle threshold that expired (µs).
	EvDiskSpinDown
	// EvSRAMFlush: the SRAM write buffer drained to the device. Size =
	// bytes flushed, Dur = drain duration (µs).
	EvSRAMFlush
	// EvSRAMStall: a write waited for buffer space. Dur = wait (µs).
	EvSRAMStall
	// EvFlashDiskWrite: a flash-disk write. Size = bytes, Dur = service (µs).
	EvFlashDiskWrite
	// EvFlashDiskErase: flash-disk sector erasure. Size = sectors erased,
	// Addr = 1 if performed synchronously on the write path, 0 in background.
	EvFlashDiskErase
	// EvCardClean: a flash-card cleaning job finished. Addr = victim
	// segment, Size = live blocks copied out, Dur = total job time (µs).
	EvCardClean
	// EvCardErase: a flash-card segment erasure. Addr = segment, Size = the
	// segment's cumulative erase count after this erasure.
	EvCardErase
	// EvCardCopy: the cleaner relocated live blocks. Addr = victim segment,
	// Size = blocks copied.
	EvCardCopy
	// EvCardStall: a host write waited for erased space. Dur = stall (µs).
	EvCardStall
	// EvCacheHit / EvCacheMiss: DRAM buffer cache lookup outcome. Size =
	// request bytes.
	EvCacheHit
	EvCacheMiss
	// EvHybridDestage: the flash cache destaged dirty blocks to disk.
	// Size = blocks destaged, Dur = batch duration (µs).
	EvHybridDestage
	// EvEnergySample: a sampler snapshot of cumulative energy for one
	// component. Dev = component ("total", "storage", "dram", "sram"),
	// Size = cumulative energy in microjoules since the start of the run.
	// Emitted only when Config.SampleEvery enables the simulated-time
	// sampler; the obsreport energy report is built from these.
	EvEnergySample
	// EvIndexWriteAmp: summary of an index-engine workload's write
	// amplification, emitted once when a generated index trace (storagesim
	// -trace index-btree / index-lsm) is replayed. Dev = engine name,
	// Addr = bytes the workload logically changed, Size = bytes the engine
	// physically wrote through its pager. Size/Addr is the index-level
	// amplification the device-level cleaner multiplies on top of.
	EvIndexWriteAmp
	// EvFaultInjected: the fault injector failed one physical attempt.
	// Addr = operation class (0 read, 1 write, 2 erase), Size = the attempt
	// number that failed.
	EvFaultInjected
	// EvRetryAttempt: a device retries after a transient fault. Addr =
	// operation class, Size = the attempt number about to run, Dur = the
	// backoff before it (µs).
	EvRetryAttempt
	// EvRemap: a worn-out erase unit was retired. Addr = the unit index,
	// Size = spares remaining after the remap, or -1 when the spare pool was
	// already exhausted and usable capacity degraded instead.
	EvRemap
	// EvReclaim: capacity pressure pressed a retired erase unit back into
	// service — live data grew past what the surviving units could hold, so
	// the controller cannibalized the least-worn retired unit rather than
	// wedge. Addr = the unit index.
	EvReclaim
	// EvPowerFail: an injected power failure. Volatile state is dropped at
	// this instant; recovery runs before the trace resumes.
	EvPowerFail
	// EvRecoveryReplayed: the post-crash recovery pass replayed
	// battery-backed SRAM contents to the device. Size = blocks replayed,
	// Dur = replay duration (µs).
	EvRecoveryReplayed
	// EvDeviceDie: a device's per-member fault plan killed it outright
	// (scheduled instant or erase-count endurance death). Addr = member
	// index within its array, Size = 1 for an erase-count death, 0 for a
	// scheduled one.
	EvDeviceDie
	// EvArrayDegraded: a mirrored array lost a member and degraded to
	// serving from the survivors. Addr = the dead member index, Size =
	// surviving member count.
	EvArrayDegraded
	// EvArrayRebuild: a mirrored array finished rebuilding a replacement
	// member from the survivors. Addr = the rebuilt member index, Size =
	// blocks copied, Dur = rebuild duration (µs).
	EvArrayRebuild
	// EvFaultLatent: a latent read-disturb/retention fault (seeded silently
	// at write time) surfaced on a read and was scrubbed in place.
	// Addr = first poisoned block in the read range, Size = poisoned blocks
	// surfaced, Dur = the scrub penalty (µs).
	EvFaultLatent
	// EvCleaningBacklog: recovery carried an interrupted cleaning job across
	// a power failure and drained it before serving. Addr = the victim
	// segment, Size = live blocks still to relocate at the crash, Dur = the
	// drain time added to recovery (µs).
	EvCleaningBacklog

	// KindOther stands for a decoded event name this build does not know.
	KindOther

	numKinds // one past the last Kind
)

// A KindSet holds one bit per Kind, so there are at most 64 of them.
var _ [64 - numKinds]struct{}

// kindNames holds each Kind's wire name: the "kind" member of an NDJSON
// event line.
var kindNames = [numKinds]string{
	EvDiskSpinUp:       "disk.spinup",
	EvDiskSpinDown:     "disk.spindown",
	EvSRAMFlush:        "sram.flush",
	EvSRAMStall:        "sram.stall",
	EvFlashDiskWrite:   "flashdisk.write",
	EvFlashDiskErase:   "flashdisk.erase",
	EvCardClean:        "flashcard.clean",
	EvCardErase:        "flashcard.erase",
	EvCardCopy:         "flashcard.copy",
	EvCardStall:        "flashcard.stall",
	EvCacheHit:         "cache.hit",
	EvCacheMiss:        "cache.miss",
	EvHybridDestage:    "hybrid.destage",
	EvEnergySample:     "sample.energy",
	EvIndexWriteAmp:    "index.writeamp",
	EvFaultInjected:    "fault.injected",
	EvRetryAttempt:     "retry.attempt",
	EvRemap:            "remap",
	EvReclaim:          "reclaim",
	EvPowerFail:        "power.fail",
	EvRecoveryReplayed: "recovery.replayed",
	EvDeviceDie:        "device.die",
	EvArrayDegraded:    "array.degraded",
	EvArrayRebuild:     "array.rebuild",
	EvFaultLatent:      "fault.latent",
	EvCleaningBacklog:  "cleaning.backlog",
	KindOther:          "other",
}

// kindsByLen inverts kindNames for ParseKind: entry n lists the kinds
// whose wire name is n bytes long, the zero Kind under 0.
var kindsByLen = func() (t [][]Kind) {
	for k := Kind(0); k < numKinds; k++ {
		n := len(kindNames[k])
		for len(t) <= n {
			t = append(t, nil)
		}
		t[n] = append(t[n], k)
	}
	return t
}()

// String returns the kind's wire name ("" for the zero Kind).
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// ParseKind maps a wire name to its Kind: the zero Kind for "" and
// KindOther for a name this build does not know. It compares name only
// with the wire names of its length and does not allocate, so the NDJSON
// decoder's fast path calls it on every line.
func ParseKind(name string) Kind {
	if len(name) < len(kindsByLen) {
		for _, k := range kindsByLen[len(name)] {
			if kindNames[k] == name {
				return k
			}
		}
	}
	return KindOther
}

// KindSet is a set of event kinds, one bit per Kind.
type KindSet uint64

// AllKinds holds every Kind, the zero Kind and KindOther included.
const AllKinds KindSet = 1<<numKinds - 1

// Kinds returns the set of the given kinds.
func Kinds(ks ...Kind) KindSet {
	var s KindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in s.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// KindFilter is implemented by a Tracer that reads only some event kinds.
// A Scope asks once, when it is built, and then neither builds nor
// delivers an event of a kind outside the set. A Tracer without the method
// reads every kind.
type KindFilter interface {
	Kinds() KindSet
}
