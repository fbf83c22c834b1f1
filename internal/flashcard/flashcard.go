// Package flashcard models a byte-addressable flash memory card (Intel
// Series 2 / Series 2+) managed as a log-structured store, the way the
// Microsoft Flash File System and eNVy do (§2):
//
//   - reads proceed at memory speed from wherever the block lives;
//   - writes append to the active segment; overwriting a logical block
//     invalidates its previous copy;
//   - one segment is filled completely before a new one is opened (§4.2);
//   - a background cleaner keeps erased segments in reserve, copying live
//     data out of the lowest-utilization victim and erasing it (1.6 s per
//     segment on the Series 2, regardless of the amount of data);
//   - cleaning runs in the gaps between host operations and is suspended
//     during host I/O; a write stalls only when no erased space exists, in
//     which case it absorbs the remaining cleaning time synchronously;
//   - cleaner relocations go to their own log head, separate from fresh
//     host writes. Survivor blocks are long-lived by definition, so mixing
//     them with hot data would drag every segment toward the same mediocre
//     utilization (the LFS hot/cold mixing problem; eNVy [24] separates
//     them for the same reason).
//
// Per-segment erase counts are tracked for the §5.2 endurance analysis.
package flashcard

import (
	"fmt"
	"math/bits"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

const (
	// noSegment marks a logical block with no live copy and an unset log
	// head.
	noSegment = int32(-1)
	// reserveSegments is how many erased segments the cleaner tries to keep
	// available: one for the host to open plus one so cleaning copies always
	// have somewhere to land (the classic LFS reserve). The paper's
	// simulator "attempts to keep at least one segment erased at all
	// times" (§4.2).
	reserveSegments = 2
)

// segState tracks the lifecycle of one segment.
type segState uint8

const (
	segErased segState = iota // erased, ready to open
	segActive                 // accepting appends (host or cleaner head)
	segClosed                 // filled; cleanable
	segBad                    // retired after wear-out; never reused
)

// logHead identifies which append stream a block enters.
type logHead uint8

const (
	hostHead logHead = iota
	cleanHead
	numHeads
)

// Card is a flash memory card device model.
type Card struct {
	p         device.FlashCardParams
	meter     *energy.Meter
	capacity  units.Bytes
	blockSize units.Bytes
	policy    Policy
	onDemand  bool  // clean only when a write needs space
	wearLevel int64 // static wear-leveling imbalance threshold; 0 = off
	lastLevel bool  // previous job was a leveling move (alternation guard)

	blocksPerSeg int32
	nseg         int32

	// blockShift replaces the per-access division by blockSize with a shift
	// when the block size is a power of two (it always is in practice).
	blockShift uint8
	shiftOK    bool

	// blockSeg[b] is the segment holding logical block b's live copy,
	// stored as segment+1 so the zero value means "no live copy": New can
	// rely on make's zeroing instead of a second full fill pass (the array
	// covers every block on the card, and Figure 4 constructs a fresh card
	// per sweep point). Readers subtract 1, which maps empty entries to
	// noSegment (-1) so existing comparisons hold unchanged.
	blockSeg []int32
	// segLive[s] counts live blocks in segment s.
	segLive []int32
	// segState[s] is the lifecycle state of segment s.
	segState []segState
	// segArena[s*blocksPerSeg : s*blocksPerSeg+segFill[s]] lists logical
	// blocks appended to segment s; entries are stale when blockSeg no
	// longer points back. A flat arena plus fill counts keeps the
	// per-append bookkeeping to two int32 stores.
	segArena []int32
	segFill  []int32
	// segErases[s] counts erasures of segment s (endurance, §5.2).
	segErases []int64
	// segFillSeq[s] is the log sequence number at which s was opened,
	// used by the FIFO and cost-benefit cleaning policies.
	segFillSeq []int64
	fillSeq    int64

	// active[h] is the segment accepting appends for log head h, or
	// noSegment; activeFree[h] counts its remaining slots.
	active     [numHeads]int32
	activeFree [numHeads]int32
	erased     []int32

	// job points at jobStore while a clean is in progress, nil otherwise;
	// the inline store keeps the per-clean record off the heap.
	job      *cleanJob
	jobStore cleanJob

	// Memoized transfer times for the card's fixed datasheet bandwidths:
	// host reads, host writes and the cleaner's copy writes. Results are
	// bit-identical to calling units.TransferTime directly.
	readMemo  units.TransferMemo
	writeMemo units.TransferMemo
	copyMemo  units.TransferMemo

	lastUpdate  units.Time
	busyUntil   units.Time
	bgBusyUntil units.Time

	// Counters for experiment reporting.
	hostWrites  int64 // host blocks written
	copyWrites  int64 // cleaner blocks copied
	totalErases int64
	stalls      int64
	cleanTime   units.Time // cumulative copy+erase time
	hostTime    units.Time // cumulative host transfer time
	prefilled   bool

	// Observability (nil-safe no-ops without a scope).
	sc        *obs.Scope
	evName    string
	cErases   *obs.Counter
	cCleans   *obs.Counter
	cCopied   *obs.Counter
	cHostBlks *obs.Counter
	cStalls   *obs.Counter
	hCleanMs  *obs.Histogram

	// Fault injection: inj draws transient errors and wear-out decisions;
	// sparesLeft counts the plan's spare segments not yet consumed by
	// remaps; badSegs counts segments retired as bad blocks. Nil inj
	// disables all of it at one check per site.
	inj        *fault.Injector
	sparesLeft int64
	badSegs    int32

	// carried holds a cleaning job preserved across a power failure when
	// the plan sets carry_cleaning_backlog; Recover drains it before the
	// card serves again, so post-recovery latency reflects the backlog.
	carried *cleanJob
}

// cleanJob is an in-progress cleaning of one victim segment.
// The job copies first, then erases: while remaining > eraseWork the work
// being done is copying.
type cleanJob struct {
	victim    int32
	remaining units.Time
	total     units.Time // full job cost, for event reporting
	// eraseWork is the erase phase's duration: EraseTime per physical erase
	// pulse plus retry backoff (EraseTime exactly when no faults fire).
	eraseWork units.Time
	// erasePulses is how many physical erase pulses the job performs; wear
	// is charged per pulse (a failed erase stresses the cells regardless).
	erasePulses int64
}

// Option configures a Card.
type Option func(*Card)

// WithPolicy selects the cleaning victim-selection policy. The default is
// GreedyPolicy (lowest utilization first), which is what MFFS uses (§2).
func WithPolicy(p Policy) Option {
	return func(c *Card) { c.policy = p }
}

// WithOnDemandCleaning disables background cleaning: segments are cleaned
// only when a write needs space, synchronously (the "on-demand" cleaning
// policy of §4.2's parameter list).
func WithOnDemandCleaning() Option {
	return func(c *Card) { c.onDemand = true }
}

// WithWearLeveling enables static wear leveling (§2: "it is possible to
// spread the load over the flash memory to avoid burning out particular
// areas"): when the erase-count spread between the most- and least-worn
// segments exceeds threshold, the cleaner forces the least-worn closed
// segment into circulation — relocating its (usually cold) data to the log
// head so the barely-worn cells join the erased pool and absorb future hot
// writes. Costs extra copies; bounds the wear spread.
func WithWearLeveling(threshold int64) Option {
	return func(c *Card) { c.wearLevel = threshold }
}

// WithFaults attaches a fault injector: transient read/write/erase errors
// are retried with full per-attempt time, energy, and wear accounting;
// segments crossing the wear-out threshold are retired as bad blocks,
// consuming the plan's spare segments first and degrading usable capacity
// after. A nil injector is free.
func WithFaults(in *fault.Injector) Option {
	return func(c *Card) { c.inj = in }
}

// WithScope attaches an observability scope: erase/clean/copy/stall
// counters and events. A nil scope is free.
func WithScope(sc *obs.Scope) Option {
	return func(c *Card) {
		c.sc = sc
		c.cErases = sc.Counter("flashcard.erases")
		c.cCleans = sc.Counter("flashcard.cleans")
		c.cCopied = sc.Counter("flashcard.copied_blocks")
		c.cHostBlks = sc.Counter("flashcard.host_blocks")
		c.cStalls = sc.Counter("flashcard.stalls")
		c.hCleanMs = sc.Histogram("flashcard.clean_ms")
	}
}

// New builds a flash card with the given capacity and logical block size.
// Capacity is rounded down to a whole number of segments.
func New(p device.FlashCardParams, capacity units.Bytes, blockSize units.Bytes, opts ...Option) (*Card, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if blockSize <= 0 || blockSize > p.SegmentSize {
		return nil, fmt.Errorf("flashcard %s: block size %v must be in (0, %v]", p.Name, blockSize, p.SegmentSize)
	}
	if p.SegmentSize%blockSize != 0 {
		return nil, fmt.Errorf("flashcard %s: segment size %v not a multiple of block size %v", p.Name, p.SegmentSize, blockSize)
	}
	nseg := int32(capacity / p.SegmentSize)
	if nseg < reserveSegments+2 {
		return nil, fmt.Errorf("flashcard %s: capacity %v yields %d segments, need ≥ %d",
			p.Name, capacity, nseg, reserveSegments+2)
	}
	c := &Card{
		p:            p,
		meter:        energy.NewMeter(),
		capacity:     units.Bytes(nseg) * p.SegmentSize,
		blockSize:    blockSize,
		policy:       GreedyPolicy{},
		blocksPerSeg: int32(p.SegmentSize / blockSize),
		nseg:         nseg,
		segLive:      make([]int32, nseg),
		segState:     make([]segState, nseg),
		segFill:      make([]int32, nseg),
		segErases:    make([]int64, nseg),
		segFillSeq:   make([]int64, nseg),
		active:       [numHeads]int32{noSegment, noSegment},
	}
	if blockSize&(blockSize-1) == 0 {
		c.shiftOK = true
		c.blockShift = uint8(bits.TrailingZeros64(uint64(blockSize)))
	}
	c.blockSeg = make([]int32, c.capacity/blockSize)
	c.segArena = make([]int32, int(nseg)*int(c.blocksPerSeg))
	c.erased = make([]int32, nseg)
	for i := range c.erased {
		c.erased[i] = int32(i)
	}
	c.readMemo = units.NewTransferMemo(p.ReadKBs)
	c.writeMemo = units.NewTransferMemo(p.WriteKBs)
	copyKBs := p.CopyKBs
	if copyKBs == 0 {
		copyKBs = p.WriteKBs
	}
	c.copyMemo = units.NewTransferMemo(copyKBs)
	for _, o := range opts {
		o(c)
	}
	c.evName = c.Name()
	c.sparesLeft = int64(c.inj.SpareUnits())
	return c, nil
}

// Prefill populates the card with the given amount of live data, placed
// sequentially from logical address zero, without charging time or energy:
// it models the preallocation the paper performs before each simulation to
// set the storage utilization (§4.2). Prefill must be called before any
// Access.
func (c *Card) Prefill(data units.Bytes) error {
	if c.prefilled || c.hostWrites > 0 || c.copyWrites > 0 {
		return fmt.Errorf("flashcard %s: Prefill after Access or a previous Prefill", c.p.Name)
	}
	c.prefilled = true
	blocks := int64(units.CeilDiv(data, c.blockSize))
	maxBlocks := int64(c.nseg-reserveSegments) * int64(c.blocksPerSeg)
	if blocks > maxBlocks {
		return fmt.Errorf("flashcard %s: prefill %v exceeds usable capacity (%v of %v)",
			c.p.Name, data, units.Bytes(maxBlocks)*c.blockSize, c.capacity)
	}
	// Bulk-fill whole segments: state-identical to appending the blocks one
	// at a time in order, but without the per-block bookkeeping — Figure 4
	// prefills 32 MB for every point.
	bps := int64(c.blocksPerSeg)
	for b := int64(0); b < blocks; {
		n := blocks - b
		if n > bps {
			n = bps
		}
		c.openSegment(hostHead)
		s := c.active[hostHead]
		base := int64(s) * bps
		for i := int64(0); i < n; i++ {
			c.segArena[base+i] = int32(b + i)
			c.blockSeg[b+i] = s + 1
		}
		c.segFill[s] = int32(n)
		c.segLive[s] = int32(n)
		c.activeFree[hostHead] = int32(bps - n)
		if c.activeFree[hostHead] == 0 {
			c.segState[s] = segClosed
			c.active[hostHead] = noSegment
		}
		b += n
	}
	return nil
}

// Name implements device.Device.
func (c *Card) Name() string { return fmt.Sprintf("%s-%s", c.p.Name, c.p.Source) }

// Meter implements device.Device.
func (c *Card) Meter() *energy.Meter { return c.meter }

// Params returns the device parameters.
func (c *Card) Params() device.FlashCardParams { return c.p }

// LiveBlocks returns the number of live logical blocks on the card.
func (c *Card) LiveBlocks() int64 {
	var live int64
	for _, l := range c.segLive {
		live += int64(l)
	}
	return live
}

// Utilization returns the live fraction of the card.
func (c *Card) Utilization() float64 {
	return float64(c.LiveBlocks()) / float64(int64(c.nseg)*int64(c.blocksPerSeg))
}

// TotalErases returns the total number of segment erasures performed.
func (c *Card) TotalErases() int64 { return c.totalErases }

// CopiedBlocks returns the number of blocks relocated by the cleaner;
// (hostWrites+copyWrites)/hostWrites is the cleaning write amplification.
func (c *Card) CopiedBlocks() int64 { return c.copyWrites }

// HostBlocks returns the number of blocks written by the host.
func (c *Card) HostBlocks() int64 { return c.hostWrites }

// Stalls returns the number of writes that waited for erased space.
func (c *Card) Stalls() int64 { return c.stalls }

// Wear implements device.WearReporter, folding segErases in place.
func (c *Card) Wear() device.Wear {
	w := device.Wear{Units: int64(len(c.segErases))}
	for _, e := range c.segErases {
		w.Sum += e
		w.Max = max(w.Max, e)
	}
	return w
}

// EraseCounts implements device.WearReporter.
func (c *Card) EraseCounts() []int64 {
	out := make([]int64, len(c.segErases))
	copy(out, c.segErases)
	return out
}

// Idle implements device.Device: accounts standby energy and advances
// background cleaning through the idle gap.
func (c *Card) Idle(now units.Time) { c.advance(now) }

// Finish implements device.Device.
func (c *Card) Finish(now units.Time) { c.advance(now) }

// Access implements device.Device.
func (c *Card) Access(req device.Request) units.Time {
	completion, service := c.serve(req, &c.busyUntil)
	if req.Op == trace.Read {
		c.hostTime += service // write counts its own host time
	}
	return completion
}

// Background performs an operation off the host's critical path (cache
// installs in the hybrid architecture, mirror-rebuild copies): it charges
// the same time and energy as Access and mutates the same block state, but
// does not delay subsequent host operations, and its reads are not host
// time. Returns the completion time.
func (c *Card) Background(req device.Request) units.Time {
	completion, _ := c.serve(req, &c.bgBusyUntil)
	return completion
}

// serve performs req after the work already queued on *queue (the host
// queue's busyUntil or the background queue's bgBusyUntil) and moves *queue
// to the completion time. It returns that time and the service time.
func (c *Card) serve(req device.Request, queue *units.Time) (completion, service units.Time) {
	if req.Op == trace.Delete {
		c.invalidate(req.Addr, req.Size)
		return req.Time, 0
	}
	start := units.Max(req.Time, *queue)
	c.advance(start)
	switch req.Op {
	case trace.Read:
		service = c.readService(req.Size, start) + c.scrubLatent(req.Addr, req.Size, start)
	case trace.Write:
		service = c.write(req.Addr, req.Size, start)
	}
	completion = start + service
	// Work on the other queue may already have advanced the energy clock
	// past this completion; never move it backwards.
	if completion > c.lastUpdate {
		c.lastUpdate = completion
	}
	*queue = completion
	return completion, service
}

// write appends the blocks of [addr, addr+size) to the host log and returns
// the service time, including any synchronous wait for erased space. start
// is the arrival instant, used to timestamp events.
func (c *Card) write(addr, size units.Bytes, start units.Time) units.Time {
	first, last := c.blockRange(addr, size)
	stall := c.appendHostRun(first, last, start)
	c.cHostBlks.Add(last - first + 1)
	transfer := c.writeMemo.Time(size)
	c.meter.Accrue(energy.StateActive, c.p.ActiveW, transfer)
	c.hostTime += transfer // stall time is cleaning work, counted there
	if c.inj != nil {
		// A failed program repeats the whole transfer: full time and energy
		// per physical attempt, standby power across the backoff waits.
		if att, backoff := c.inj.Attempts(fault.OpWrite, c.evName, start); att > 1 {
			extra := transfer * units.Time(att-1)
			c.meter.Accrue(energy.StateActive, c.p.ActiveW, extra)
			c.meter.Accrue(energy.StateStandby, c.p.StandbyW, backoff)
			c.hostTime += extra
			transfer += extra + backoff
		}
		// The program may silently seed retention/read-disturb rot that only
		// a later read will surface (free when the plan has no latent rate).
		c.inj.SeedLatent(first, last)
	}
	if stall > 0 {
		c.stalls++
		c.cStalls.Inc()
		if c.sc.Wants(obs.EvCardStall) {
			c.sc.Emit(obs.Event{T: int64(start), Kind: obs.EvCardStall, Dev: c.evName, Dur: int64(stall)})
		}
	}
	return stall + transfer
}

// readService computes one read transfer's service time including any
// injected transient-fault retries, charging active energy per physical
// attempt and standby energy for the backoff waits.
func (c *Card) readService(size units.Bytes, start units.Time) units.Time {
	service := c.readMemo.Time(size)
	c.meter.Accrue(energy.StateActive, c.p.ActiveW, service)
	if c.inj != nil {
		if att, backoff := c.inj.Attempts(fault.OpRead, c.evName, start); att > 1 {
			extra := service * units.Time(att-1)
			c.meter.Accrue(energy.StateActive, c.p.ActiveW, extra)
			c.meter.Accrue(energy.StateStandby, c.p.StandbyW, backoff)
			service += extra + backoff
		}
	}
	return service
}

// scrubLatent surfaces any latent retention/read-disturb faults seeded on
// the blocks just read: each poisoned block pays a re-read plus an
// in-place block rewrite before the data returns (the scrub-or-retry
// path), charged as active energy. Free when nothing was ever seeded.
func (c *Card) scrubLatent(addr, size units.Bytes, start units.Time) units.Time {
	if c.inj == nil || c.inj.LatentPending() == 0 {
		return 0
	}
	first, last := c.blockRange(addr, size)
	perBlock := c.readMemo.Time(c.blockSize) + c.writeMemo.Time(c.blockSize)
	n := c.inj.SurfaceLatent(c.evName, first, last, start, perBlock)
	if n == 0 {
		return 0
	}
	penalty := perBlock * units.Time(n)
	c.meter.Accrue(energy.StateActive, c.p.ActiveW, penalty)
	return penalty
}

// ensureSpace guarantees the head's active segment can take one more block,
// returning any synchronous stall time incurred finishing cleans. A head
// only opens a segment while another remains erased (or nothing is
// cleanable), so cleaning relocations always have somewhere to land.
func (c *Card) ensureSpace(h logHead, at units.Time) units.Time {
	if c.active[h] != noSegment && c.activeFree[h] > 0 {
		return 0
	}
	var stall units.Time
	for len(c.erased) < 2 {
		if c.job == nil {
			c.startJob(at + stall)
			if c.job == nil {
				// Nothing cleanable. With erased space in hand that just
				// means every closed segment is fully live right now; open
				// what we have and let host writes create dead blocks. With
				// the pool empty it means wear-out retirement overcommitted
				// the card — live data grew past what the survivors can
				// sustain — so press a retired segment back into service.
				if len(c.erased) == 0 && c.reclaimRetired(at+stall) {
					continue
				}
				break
			}
		}
		stall += c.job.remaining
		c.accrueJob(c.job.remaining)
		c.job.remaining = 0
		c.finishJob(at + stall)
	}
	// The cleaning relocations above may themselves have opened a fresh
	// active segment for this head; use it rather than leaking it.
	if c.active[h] != noSegment && c.activeFree[h] > 0 {
		return stall
	}
	if len(c.erased) == 0 {
		// Unreachable unless the card was sized below its workload from the
		// start: any fault-induced squeeze has retired segments to reclaim.
		panic(fmt.Sprintf("flashcard %s: wedged: no erased space, no cleanable victim, nothing to reclaim (utilization %.3f)",
			c.p.Name, c.Utilization()))
	}
	c.openSegment(h)
	return stall
}

// reclaimRetired presses the least-worn retired segment back into service,
// returning false when none exists. This is retirement's pressure valve:
// canRetire bounds retirement against the live data at retirement time, but
// the live set can grow afterwards, and a card squeezed below what its
// workload needs would wedge — every relocation too big for the remaining
// free space. A retired segment was erased just before retirement and its
// cells still work (wear-out is a threshold, not instant death), so the
// controller reuses the least-worn one rather than fail. The segment keeps
// aging normally and may be retired again once the pressure eases.
func (c *Card) reclaimRetired(at units.Time) bool {
	best := noSegment
	for s := int32(0); s < c.nseg; s++ {
		if c.segState[s] != segBad {
			continue
		}
		if best == noSegment || c.segErases[s] < c.segErases[best] {
			best = s
		}
	}
	if best == noSegment {
		return false
	}
	c.segState[best] = segErased
	c.erased = append(c.erased, best)
	c.badSegs--
	c.inj.RecordReclaim(c.evName, int64(best), at)
	return true
}

// openSegment makes the next erased segment the active segment of head h.
// The head's previous segment must have been closed; silently clobbering it
// would leak its free slots.
func (c *Card) openSegment(h logHead) {
	if c.active[h] != noSegment {
		panic(fmt.Sprintf("flashcard %s: openSegment(%d) while segment %d is active", c.p.Name, h, c.active[h]))
	}
	s := c.erased[0]
	c.erased = c.erased[1:]
	c.active[h] = s
	c.activeFree[h] = c.blocksPerSeg
	c.segState[s] = segActive
	c.fillSeq++
	c.segFillSeq[s] = c.fillSeq
	c.segFill[s] = 0
}

// appendHostRun appends logical blocks [first, last] to the host log,
// returning the synchronous stall time spent waiting for erased space.
// State-identical to appending one block at a time, each after an
// ensureSpace call: blocks land in the same arena slots, segments close and
// open at the same points, and ensureSpace runs exactly where a per-block
// append would have it do non-trivial work (at rollover, with the stall
// accumulated so far — for every other block it returns immediately). The
// live counts batch as plain integer sums, so the final state is
// identical, not just equivalent.
func (c *Card) appendHostRun(first, last int64, start units.Time) units.Time {
	var stall units.Time
	bps := int64(c.blocksPerSeg)
	for b := first; b <= last; {
		if c.active[hostHead] == noSegment || c.activeFree[hostHead] == 0 {
			stall += c.ensureSpace(hostHead, start+stall)
		}
		s := c.active[hostHead]
		n := last - b + 1
		if free := int64(c.activeFree[hostHead]); n > free {
			n = free
		}
		base := int64(s)*bps + int64(c.segFill[s])
		for i := int64(0); i < n; i++ {
			blk := int32(b + i)
			if old := c.blockSeg[blk] - 1; old != noSegment {
				c.segLive[old]--
			}
			c.blockSeg[blk] = s + 1
			c.segArena[base+i] = blk
		}
		c.segLive[s] += int32(n)
		c.segFill[s] += int32(n)
		c.activeFree[hostHead] -= int32(n)
		if c.activeFree[hostHead] == 0 {
			c.segState[s] = segClosed
			c.active[hostHead] = noSegment
		}
		c.hostWrites += n
		b += n
	}
	return stall
}

func (c *Card) blockRange(addr, size units.Bytes) (first, last int64) {
	if c.shiftOK {
		return int64(addr >> c.blockShift), int64((addr + size - 1) >> c.blockShift)
	}
	return int64(addr / c.blockSize), int64((addr + size - 1) / c.blockSize)
}

// invalidate drops live copies in [addr, addr+size) (file deletion).
func (c *Card) invalidate(addr, size units.Bytes) {
	if size <= 0 {
		return
	}
	first, last := c.blockRange(addr, size)
	for b := first; b <= last; b++ {
		if s := c.blockSeg[b] - 1; s != noSegment {
			c.segLive[s]--
			c.blockSeg[b] = 0
		}
	}
}

// advance integrates standby energy and progresses background cleaning
// across the host-idle gap [lastUpdate, now].
func (c *Card) advance(now units.Time) {
	if now <= c.lastUpdate {
		return
	}
	gap := now - c.lastUpdate
	var spent units.Time
	if !c.onDemand {
		spent = c.runCleaner(c.lastUpdate, gap)
	}
	c.meter.Accrue(energy.StateStandby, c.p.StandbyW, gap-spent)
	c.lastUpdate = now
}

// runCleaner spends up to budget µs of idle time cleaning, starting at the
// given instant; returns time actually spent.
func (c *Card) runCleaner(start, budget units.Time) units.Time {
	var spent units.Time
	for spent < budget {
		if c.job == nil {
			if int32(len(c.erased)) >= reserveSegments {
				return spent // reserve satisfied
			}
			c.startJob(start + spent)
			if c.job == nil {
				return spent // nothing cleanable
			}
		}
		step := units.Min(c.job.remaining, budget-spent)
		c.accrueJob(step)
		c.job.remaining -= step
		spent += step
		if c.job.remaining == 0 {
			c.finishJob(start + spent)
		}
	}
	return spent
}

// startJob selects a cleaning victim whose relocation is guaranteed to fit
// in the remaining free space, and computes the job cost. Leaves job nil
// when no victim qualifies. at timestamps any fault events the job's erase
// schedule draws.
func (c *Card) startJob(at units.Time) {
	victim := c.policy.SelectVictim(c)
	// A leveling move relocates a (often fully live) cold segment, which
	// frees no net space, so it must alternate with ordinary cleans —
	// otherwise a space-starved write could loop on leveling forever.
	if c.wearLevel > 0 && !c.lastLevel {
		if lv := c.wearLevelVictim(); lv != noSegment && c.relocationFits(lv) {
			c.lastLevel = true
			c.startJobFor(lv, at)
			return
		}
	}
	c.lastLevel = false
	if victim != noSegment && !c.relocationFits(victim) {
		// Fall back to the smallest-live victim, the most likely to fit.
		victim = (GreedyPolicy{}).SelectVictim(c)
		if victim != noSegment && !c.relocationFits(victim) {
			victim = noSegment
		}
	}
	if victim == noSegment {
		return
	}
	c.startJobFor(victim, at)
}

// startJobFor computes the cleaning cost of a chosen victim and installs
// the job. The erase-retry schedule is drawn here, up front, so the job's
// total duration is fixed when it starts (events are timestamped at).
func (c *Card) startJobFor(victim int32, at units.Time) {
	// Copying is a flash read plus a flash write per live byte, followed by
	// the fixed-cost erase.
	copyBytes := units.Bytes(c.segLive[victim]) * c.blockSize
	copyWork := c.readMemo.Time(copyBytes) + c.copyMemo.Time(copyBytes)
	pulses, backoff := int64(1), units.Time(0)
	if c.inj != nil {
		pulses, backoff = c.inj.Attempts(fault.OpErase, c.evName, at)
	}
	eraseWork := units.Time(pulses)*c.p.EraseTime + backoff
	total := copyWork + eraseWork
	c.jobStore = cleanJob{victim: victim, remaining: total, total: total,
		eraseWork: eraseWork, erasePulses: pulses}
	c.job = &c.jobStore
}

// wearLevelVictim returns the least-worn closed segment when the wear
// spread exceeds the leveling threshold, or noSegment.
func (c *Card) wearLevelVictim() int32 {
	var minSeg = noSegment
	var minWear, maxWear int64
	for s := int32(0); s < c.nseg; s++ {
		if e := c.segErases[s]; e > maxWear {
			maxWear = e
		}
		if c.segState[s] != segClosed {
			continue
		}
		if minSeg == noSegment || c.segErases[s] < minWear {
			minSeg, minWear = s, c.segErases[s]
		}
	}
	if minSeg == noSegment || maxWear-minWear <= c.wearLevel {
		return noSegment
	}
	return minSeg
}

// relocationFits reports whether victim's live blocks fit in the cleaner's
// active segment plus the erased pool.
func (c *Card) relocationFits(victim int32) bool {
	space := int64(len(c.erased)) * int64(c.blocksPerSeg)
	if c.active[cleanHead] != noSegment {
		space += int64(c.activeFree[cleanHead])
	}
	return int64(c.segLive[victim]) <= space
}

// CleaningTime returns cumulative time spent copying and erasing, and
// HostTime the cumulative host transfer time (including cleaning stalls).
// CleaningTime/(CleaningTime+HostTime) is eNVy's "fraction of time spent
// erasing or copying data within flash" (§6).
func (c *Card) CleaningTime() units.Time { return c.cleanTime }

// HostTime returns cumulative host service time on the card.
func (c *Card) HostTime() units.Time { return c.hostTime }

// accrueJob charges energy for a step of cleaning work. The job copies
// first and erases last, so the final eraseWork of remaining is erase work
// (at the lower erase draw; retried pulses and their backoff included) and
// everything before it is copying.
func (c *Card) accrueJob(step units.Time) {
	c.cleanTime += step
	copying := units.Max(0, c.job.remaining-c.job.eraseWork)
	cp := units.Min(step, copying)
	if cp > 0 {
		c.meter.Accrue(energy.StateCleaner, c.p.ActiveW, cp)
	}
	if er := step - cp; er > 0 {
		c.meter.Accrue(energy.StateErase, c.p.EraseW, er)
	}
}

// finishJob applies the completed job's state changes at the given instant:
// relocate the victim's live blocks to the cleaner's log head, then mark the
// victim erased.
func (c *Card) finishJob(at units.Time) {
	v := c.job.victim
	total := c.job.total
	pulses := c.job.erasePulses
	c.job = nil
	// Relocate the victim's live blocks to the cleaner's log head in chunks
	// bounded by the head's free space. State-identical to relocating one
	// block at a time: a victim is always closed (never the cleaner's own
	// active segment), so the per-block decrement/increment pairs batch
	// into one subtraction from the victim and one addition per destination
	// chunk.
	var copied int64
	bps := int64(c.blocksPerSeg)
	base := int64(v) * bps
	src := c.segArena[base : base+int64(c.segFill[v])]
	vp1 := v + 1
	for si := 0; si < len(src); {
		if c.blockSeg[src[si]] != vp1 {
			si++ // stale arena entry: the block was overwritten or deleted
			continue
		}
		if c.active[cleanHead] == noSegment || c.activeFree[cleanHead] == 0 {
			if c.active[cleanHead] != noSegment {
				c.segState[c.active[cleanHead]] = segClosed
				c.active[cleanHead] = noSegment
			}
			if len(c.erased) == 0 {
				panic(fmt.Sprintf("flashcard %s: relocation without erased space", c.p.Name))
			}
			c.openSegment(cleanHead)
		}
		s := c.active[cleanHead]
		dst := int64(s)*bps + int64(c.segFill[s])
		free := c.activeFree[cleanHead]
		n := int32(0)
		for si < len(src) && n < free {
			b := src[si]
			si++
			if c.blockSeg[b] != vp1 {
				continue
			}
			c.blockSeg[b] = s + 1
			c.segArena[dst+int64(n)] = b
			n++
		}
		c.segLive[s] += n
		c.segFill[s] += n
		c.activeFree[cleanHead] = free - n
		if c.activeFree[cleanHead] == 0 {
			c.segState[s] = segClosed
			c.active[cleanHead] = noSegment
		}
		copied += int64(n)
	}
	c.segLive[v] -= int32(copied)
	c.copyWrites += copied
	c.segFill[v] = 0
	if c.segLive[v] != 0 {
		panic(fmt.Sprintf("flashcard %s: segment %d has %d live blocks after clean", c.p.Name, v, c.segLive[v]))
	}
	// Wear is per physical pulse: a failed erase stresses the cells exactly
	// like a successful one, so retried erasures age the segment faster.
	c.segErases[v] += pulses
	c.totalErases += pulses
	c.cErases.Add(pulses)
	c.retireIfWorn(v, at)
	c.cCleans.Inc()
	c.cCopied.Add(copied)
	c.hCleanMs.Observe(total)
	if c.sc.Wants(obs.EvCardClean) {
		c.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvCardClean, Dev: c.evName,
			Addr: int64(v), Size: copied, Dur: int64(total)})
	}
	if copied > 0 && c.sc.Wants(obs.EvCardCopy) {
		c.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvCardCopy, Dev: c.evName,
			Addr: int64(v), Size: copied})
	}
	if c.sc.Wants(obs.EvCardErase) {
		c.sc.Emit(obs.Event{T: int64(at), Kind: obs.EvCardErase, Dev: c.evName,
			Addr: int64(v), Size: c.segErases[v]})
	}
}

// retireIfWorn decides the just-erased (and now empty) segment's fate:
// normally it rejoins the erased pool; past the wear-out threshold it is
// retired as a bad block — covered by a spare while any remain, otherwise
// shrinking usable capacity. A segment whose retirement would strand live
// data or break the cleaning reserve stays in service (a real controller
// has the same floor: it cannot remap capacity it does not have).
func (c *Card) retireIfWorn(v int32, at units.Time) {
	if c.inj.WornOut(c.segErases[v]) {
		if c.canRetire() {
			c.segState[v] = segBad
			c.badSegs++
			if c.sparesLeft > 0 {
				c.sparesLeft--
				c.inj.RecordRemap(c.evName, int64(v), c.sparesLeft, at)
			} else {
				c.inj.RecordSpareExhausted(c.evName, int64(v), at)
			}
			return
		}
		c.inj.RecordSpareExhausted(c.evName, int64(v), at)
	}
	c.segState[v] = segErased
	c.erased = append(c.erased, v)
}

// canRetire reports whether the card can afford to lose one more segment:
// the survivors must still hold all live data plus the cleaning reserve,
// and the erased pool must stay non-empty without the candidate. The pool
// condition keeps retirement from wedging the cleaner in the moment: a
// victim's live blocks always fit into one whole erased segment, so a
// non-empty pool guarantees some victim stays cleanable. It cannot see the
// future, though — the capacity check uses the live data at retirement
// time, and a workload whose live set grows afterwards can still squeeze
// the card past sustainability; reclaimRetired is the valve for that case.
func (c *Card) canRetire() bool {
	if len(c.erased) == 0 {
		return false
	}
	usable := int64(c.nseg-c.badSegs) - 1
	if usable < reserveSegments+2 {
		return false
	}
	return c.LiveBlocks() <= (usable-reserveSegments)*int64(c.blocksPerSeg)
}

// Crash implements device.Crasher: power failure drops the in-flight
// cleaning job. The job's copies and erase had not been applied — state
// changes land atomically at finishJob — so the abandoned job loses only
// the work already spent on it, never live data. Flash contents survive.
// With carry_cleaning_backlog the job is preserved instead of dropped:
// Recover drains it before the card serves again.
func (c *Card) Crash(at units.Time) {
	c.advance(at)
	if c.job != nil && c.inj.CarryBacklog() {
		c.carried = c.job
	}
	c.job = nil
	if c.busyUntil > at {
		c.busyUntil = at
	}
	if c.bgBusyUntil > at {
		c.bgBusyUntil = at
	}
}

// Recover implements device.Crasher: the controller rebuilds its block map
// by scanning one segment summary per segment (a block-sized read each),
// then verifies the rebuilt state. Returns when the scan completes. A
// cleaning job carried across the crash (carry_cleaning_backlog) is
// drained synchronously before the card serves: the segment-summary scan
// found the half-cleaned victim, and a controller that preserves its
// progress journal must finish the relocation before trusting the map —
// so the backlog lands on post-recovery latency, where it belongs.
func (c *Card) Recover(at units.Time) units.Time {
	scan := units.Time(c.nseg) * units.TransferTime(c.blockSize, c.p.ReadKBs)
	c.meter.Accrue(energy.StateActive, c.p.ActiveW, scan)
	done := at + scan
	if job := c.carried; job != nil {
		c.carried = nil
		c.job = job
		drain := job.remaining
		live := int64(c.segLive[job.victim])
		c.accrueJob(drain)
		job.remaining = 0
		done += drain
		c.finishJob(done)
		c.inj.RecordBacklog(c.evName, int64(job.victim), live, done, drain)
	}
	if done > c.lastUpdate {
		c.lastUpdate = done
	}
	c.busyUntil = units.Max(c.busyUntil, done)
	if err := c.CheckConsistency(); err != nil {
		c.inj.Violatef("flashcard %s: recovery: %v", c.p.Name, err)
	}
	return done
}

// HasData reports whether every logical block of [addr, addr+size) holds
// live data on the card — the witness for the array recovery invariant
// that no acknowledged write is lost while a mirror member survives.
func (c *Card) HasData(addr, size units.Bytes) bool {
	first, last := c.blockRange(addr, size)
	for b := first; b <= last; b++ {
		if b < 0 || b >= int64(len(c.blockSeg)) || c.blockSeg[b] == 0 {
			return false
		}
	}
	return true
}

// CheckConsistency recomputes live-block counts from the block map and
// verifies them against the per-segment counters, and that erased and
// retired segments hold no live data. A non-nil error means the simulator's
// own bookkeeping is broken.
func (c *Card) CheckConsistency() error {
	live := make([]int32, c.nseg)
	for b, sp := range c.blockSeg {
		s := sp - 1
		if s == noSegment {
			continue
		}
		if s < 0 || s >= c.nseg {
			return fmt.Errorf("block %d mapped to invalid segment %d", b, s)
		}
		live[s]++
	}
	for s := int32(0); s < c.nseg; s++ {
		if live[s] != c.segLive[s] {
			return fmt.Errorf("segment %d: segLive=%d but %d blocks map to it", s, c.segLive[s], live[s])
		}
		if (c.segState[s] == segErased || c.segState[s] == segBad) && live[s] != 0 {
			return fmt.Errorf("segment %d: erased/bad segment holds %d live blocks", s, live[s])
		}
	}
	return nil
}

var (
	_ device.Device       = (*Card)(nil)
	_ device.WearReporter = (*Card)(nil)
	_ device.Cleaner      = (*Card)(nil)
	_ device.Crasher      = (*Card)(nil)
)
