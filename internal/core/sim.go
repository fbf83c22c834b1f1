package core

import (
	"fmt"
	"sync"

	"mobilestorage/internal/array"
	"mobilestorage/internal/cache"
	"mobilestorage/internal/device"
	"mobilestorage/internal/disk"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/flashcard"
	"mobilestorage/internal/flashdisk"
	"mobilestorage/internal/hybrid"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/sram"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// stack is the composed storage hierarchy for one run, with typed handles
// to each component for statistics extraction.
type stack struct {
	top    device.Device
	disk   *disk.Disk
	fdisk  *flashdisk.FlashDisk
	fcard  *flashcard.Card
	hyb    *hybrid.Cache
	arr    *array.Array
	buffer *sram.Buffer
}

// meters returns every energy meter in the stack. Each populated component
// is checked independently: buildStack only ever sets one base device, but a
// hand-assembled stack (tests, future composites) must report every meter
// exactly once rather than just the first match.
func (s *stack) meters() []*energy.Meter {
	var ms []*energy.Meter
	if s.disk != nil {
		ms = append(ms, s.disk.Meter())
	}
	if s.fdisk != nil {
		ms = append(ms, s.fdisk.Meter())
	}
	if s.fcard != nil {
		ms = append(ms, s.fcard.Meter())
	}
	if s.hyb != nil {
		ms = append(ms, s.hyb.Meter())
	}
	if s.arr != nil {
		ms = append(ms, s.arr.Meters()...)
	}
	if s.buffer != nil {
		ms = append(ms, s.buffer.Meter())
	}
	return ms
}

// dramCache is the buffer-cache surface the simulator's setup, teardown,
// and crash helpers need. Run's per-run dramRun and the frozen
// cache.RefCache both satisfy it, so the helpers are shared between Run and
// runReference.
type dramCache interface {
	Meter() *energy.Meter
	Crash() int
	Hits() int64
	Misses() int64
}

// TracePrep is the cached per-trace preprocessing Run performs before
// replay: validation, per-file maximum extents (placement hints), the
// storage footprint, and the DRAM cache's decisions per cache geometry. It
// is safe to share across concurrent runs, which is exactly what parameter
// sweeps over one trace want — build it once with PrepareTrace and put it
// in Config.Prep.
type TracePrep struct {
	trace     *trace.Trace
	err       error
	hints     *trace.FileSizes
	footprint units.Bytes
	// placements[i] is record i's device byte address. Placement is a pure
	// function of the record sequence — the layout evolves identically
	// regardless of device or cache configuration — so it is computed once
	// per trace and shared by every run in a sweep instead of being replayed
	// through a fresh Layout per run. Delete records (which need the whole
	// extent, and may be no-ops) live in the deletions side table; their
	// placements entry is unused.
	placements []units.Bytes
	deletions  map[int]delExtent

	// filters memoizes the DRAM filter per cache geometry for runs without
	// power failures; it is the only part of a prep built after
	// PrepareTrace returns.
	filterMu sync.Mutex
	filters  map[filterKey]func() *dramFilter
}

// delExtent is the extent a Delete record releases.
type delExtent struct {
	off, size units.Bytes
}

// placeRecords replays the layout over the trace once, recording each
// record's placement, and returns the high-water footprint of the same
// replay (block-rounded by construction). Deletes of never-placed files are
// simply absent from the deletions table.
func placeRecords(t *trace.Trace, blockSize units.Bytes, hints *trace.FileSizes) ([]units.Bytes, map[int]delExtent, units.Bytes) {
	l := trace.NewLayout(blockSize)
	out := make([]units.Bytes, len(t.Records))
	var dels map[int]delExtent
	for i, rec := range t.Records {
		switch rec.Op {
		case trace.Delete:
			off, size, ok := l.Extent(rec.File)
			if !ok {
				continue
			}
			if dels == nil {
				dels = make(map[int]delExtent)
			}
			dels[i] = delExtent{off: off, size: size}
			l.Delete(rec.File)
		default:
			out[i] = l.Place(rec.File, rec.Offset, hints.Get(rec.File))
		}
	}
	return out, dels, l.HighWater()
}

// PrepareTrace validates the trace and precomputes the placement hints and
// footprint Run needs. The result is tied to this exact *Trace; mutating
// the trace afterwards invalidates it.
func PrepareTrace(t *trace.Trace) *TracePrep {
	p := &TracePrep{trace: t}
	if err := t.Validate(); err != nil {
		p.err = err
		return p
	}
	p.hints = t.MaxFileExtents()
	p.placements, p.deletions, p.footprint = placeRecords(t, t.BlockSize, p.hints)
	return p
}

// Footprint returns the trace's storage footprint (0 for an invalid trace).
func (p *TracePrep) Footprint() units.Bytes { return p.footprint }

// Err returns the trace validation error, if any.
func (p *TracePrep) Err() error { return p.err }

// Run replays the configured trace through the configured storage hierarchy
// and returns the paper-style result.
func Run(cfg Config) (*Result, error) {
	if cfg.Reference {
		return runReference(cfg)
	}
	cfg = cfg.withDefaults()
	if cfg.Trace == nil {
		return nil, fmt.Errorf("core: no trace configured")
	}
	prep := cfg.Prep
	if prep == nil || prep.trace != cfg.Trace {
		prep = PrepareTrace(cfg.Trace)
	}
	if prep.err != nil {
		return nil, prep.err
	}
	if err := cfg.validateNonTrace(); err != nil {
		return nil, err
	}
	t := cfg.Trace
	blockSize := t.BlockSize

	// Preprocessing (footprint sizes the flash devices; per-record placements
	// replace the per-run layout replay) comes from the prep — shared across
	// a sweep's runs or computed fresh above.
	placements := prep.placements
	deletions := prep.deletions
	footprint := prep.footprint

	// Nil when the plan injects nothing: the fault-free path stays
	// byte-identical to a build without fault injection.
	inj := fault.NewInjector(cfg.Faults, cfg.FaultSeed, cfg.Scope)

	st, err := buildStack(cfg, blockSize, footprint, inj)
	if err != nil {
		return nil, err
	}
	crashes := inj.PowerFailSchedule()
	ci := 0

	// The DRAM cache's LRU decisions come from the filter: shared through
	// the prep across runs without power failures, built for this run's
	// crash instants otherwise.
	var dram *dramRun
	if cfg.DRAMBytes > 0 {
		mem, err := cache.New(*cfg.DRAM, cfg.DRAMBytes, blockSize, cfg.WriteBack, cache.WithScope(cfg.Scope))
		if err != nil {
			return nil, err
		}
		capBlocks := int(cfg.DRAMBytes / blockSize)
		dram = &dramRun{mem: mem}
		if len(crashes) == 0 {
			dram.f = prep.dramFilter(capBlocks, cfg.WriteBack)
		} else {
			dram.f = buildDRAMFilter(prep, capBlocks, cfg.WriteBack, crashes)
		}
	}
	// dc is the nil-safe interface view of dram for the shared helpers: a
	// typed nil *dramRun inside the interface would defeat their
	// dram != nil checks.
	var dc dramCache
	if dram != nil {
		dc = dram
	}
	sc := cfg.Scope
	tracing := sc.Tracing()
	smp := newSampler(cfg, sc, st, dc)

	res := &Result{
		TraceName:         t.Name,
		Device:            st.top.Name(),
		EnergyByComponent: make(map[string]float64),
		ReadHist:          stats.NewLatencyHistogram(),
		WriteHist:         stats.NewLatencyHistogram(),
	}

	warmIdx := t.WarmSplit(cfg.WarmFraction)
	var warmSnapshot float64
	snapshotTaken := warmIdx == 0

	var lastCompletion units.Time
	for i := range t.Records {
		rec := &t.Records[i]
		for ci < len(crashes) && crashes[ci] <= rec.Time {
			crashAndRecover(st, dc, inj, cfg, crashes[ci])
			ci++
		}
		st.top.Idle(rec.Time)
		smp.Tick(int64(rec.Time))
		if !snapshotTaken && i >= warmIdx {
			if dram != nil {
				dram.mem.AccrueStandby(rec.Time)
			}
			warmSnapshot = totalEnergy(st, dc)
			snapshotTaken = true
		}

		switch rec.Op {
		case trace.Delete:
			pl, ok := deletions[i]
			if !ok {
				continue // deleting a file the trace never touched
			}
			st.top.Access(device.Request{Time: rec.Time, Op: trace.Delete, File: rec.File, Addr: pl.off, Size: pl.size})

		case trace.Read:
			addr := placements[i]
			var resp units.Time
			hit := false
			if dram != nil && dram.hit(i) {
				hit = true
				if tracing {
					sc.Emit(obs.Event{T: int64(rec.Time), Kind: obs.EvCacheHit, Size: int64(rec.Size)})
				}
				resp = dram.mem.AccessTime(rec.Size)
			} else {
				if tracing && dram != nil {
					sc.Emit(obs.Event{T: int64(rec.Time), Kind: obs.EvCacheMiss, Size: int64(rec.Size)})
				}
				completion := st.top.Access(device.Request{
					Time: rec.Time, Op: trace.Read, File: rec.File, Addr: addr, Size: rec.Size,
				})
				if completion > lastCompletion {
					lastCompletion = completion
				}
				if dram != nil {
					writeEvicted(st, dram.evicted(i), completion)
				}
				resp = completion - rec.Time
			}
			if i >= warmIdx {
				res.Read.AddTime(resp)
				res.ReadHist.Add(resp.Milliseconds())
				res.Overall.AddTime(resp)
				res.MeasuredOps++
			}
			if cfg.Observer != nil {
				cfg.Observer(OpObservation{Index: i, Arrival: rec.Time, Response: resp,
					Op: trace.Read, CacheHit: hit, Size: rec.Size})
			}

		case trace.Write:
			addr := placements[i]
			var resp units.Time
			if cfg.WriteBack && dram != nil {
				// Write-back ablation: the write completes at DRAM speed;
				// dirty evictions trickle out asynchronously.
				resp = dram.mem.AccessTime(rec.Size)
				writeEvicted(st, dram.evicted(i), rec.Time+resp)
			} else {
				// Paper default: write-through. The block lands in the
				// cache and the device; response is the device write.
				completion := st.top.Access(device.Request{
					Time: rec.Time, Op: trace.Write, File: rec.File, Addr: addr, Size: rec.Size,
				})
				if completion > lastCompletion {
					lastCompletion = completion
				}
				if dram != nil {
					dram.mem.AccessTime(rec.Size) // parallel cache update energy
					writeEvicted(st, dram.evicted(i), completion)
				}
				resp = completion - rec.Time
			}
			if i >= warmIdx {
				res.Write.AddTime(resp)
				res.WriteHist.Add(resp.Milliseconds())
				res.Overall.AddTime(resp)
				res.MeasuredOps++
			}
			if cfg.Observer != nil {
				cfg.Observer(OpObservation{Index: i, Arrival: rec.Time, Response: resp,
					Op: trace.Write, Size: rec.Size})
			}
		}
	}

	end := units.Max(t.Duration(), lastCompletion)
	// Power failures scheduled after the last record but within the run
	// still fire (the trace's tail idle period).
	for ; ci < len(crashes) && crashes[ci] <= end; ci++ {
		crashAndRecover(st, dc, inj, cfg, crashes[ci])
	}
	// Final write-back flush happens off the books: it is an artifact of
	// ending the simulation, not of the workload.
	if cfg.WriteBack && dram != nil {
		writeEvicted(st, dram.finalFlush(), end)
	}
	st.top.Finish(end)
	if dram != nil {
		dram.mem.AccrueStandby(end)
	}

	// The final sample lands after the device and cache wind-down above, so
	// the timeline's last point carries the run's complete counter and
	// energy state.
	smp.Finish(int64(end))
	res.Timeline = smp.Timeline()

	res.EndTime = end
	fillEnergy(res, st, dc, warmSnapshot)
	fillDeviceStats(res, st, dc)
	res.Faults = inj.Report()
	if st.arr != nil {
		if ar := st.arr.FaultReport(); ar != nil {
			if res.Faults == nil {
				res.Faults = ar
			} else {
				res.Faults.Merge(ar)
			}
		}
	}
	if reg := sc.Registry(); reg != nil {
		res.Metrics = reg.Counters()
	}
	return res, nil
}

// crashAndRecover injects one power failure at the given instant and runs
// the recovery pass, checking the stack-level recovery invariants:
//
//   - a write-through DRAM cache never loses acknowledged writes (it holds
//     no dirty data); only the write-back ablation may report lost writes;
//   - the flash card's cleaner never loses live blocks to a crash;
//   - the battery-backed SRAM buffer is empty after its recovery replay.
//
// Violations are recorded on the injector's report — tests fail on any.
func crashAndRecover(st *stack, dram dramCache, inj *fault.Injector, cfg Config, at units.Time) {
	st.top.Idle(at)
	inj.RecordPowerFail(at)

	var card *flashcard.Card
	switch {
	case st.fcard != nil:
		card = st.fcard
	case st.hyb != nil:
		card = st.hyb.Card()
	}
	var preLive int64
	if card != nil {
		preLive = card.LiveBlocks()
	}

	if dram != nil {
		if lost := dram.Crash(); lost > 0 {
			inj.RecordLostWrites(int64(lost), at)
			if !cfg.WriteBack {
				inj.Violatef("core: write-through DRAM cache lost %d dirty blocks at power failure t=%dµs", lost, int64(at))
			}
		}
	}
	if cr, ok := st.top.(device.Crasher); ok {
		cr.Crash(at)
		cr.Recover(at)
	}

	if card != nil {
		if post := card.LiveBlocks(); post < preLive {
			inj.Violatef("core: flash card lost %d live blocks across power failure t=%dµs", preLive-post, int64(at))
		}
	}
	if st.buffer != nil && st.buffer.BufferedBytes() != 0 {
		inj.Violatef("core: SRAM buffer holds %v after recovery at t=%dµs", st.buffer.BufferedBytes(), int64(at))
	}
}

// writeEvicted flushes dirty cache evictions to the device at the given
// time (asynchronous with respect to the response being measured).
func writeEvicted(st *stack, extents []cache.Extent, at units.Time) {
	for _, e := range extents {
		st.top.Access(device.Request{
			Time: at, Op: trace.Write, File: ^uint32(0), Addr: e.Addr, Size: e.Size,
		})
	}
}

// totalEnergy sums all component meters.
func totalEnergy(st *stack, dram dramCache) float64 {
	var j float64
	for _, m := range st.meters() {
		j += m.TotalJ()
	}
	if dram != nil {
		j += dram.Meter().TotalJ()
	}
	return j
}

// fillEnergy computes post-warm-start energy totals and the component
// breakdown.
func fillEnergy(res *Result, st *stack, dram dramCache, warmSnapshot float64) {
	var storageJ float64
	switch {
	case st.disk != nil:
		storageJ = st.disk.Meter().TotalJ()
	case st.fdisk != nil:
		storageJ = st.fdisk.Meter().TotalJ()
	case st.fcard != nil:
		storageJ = st.fcard.Meter().TotalJ()
	case st.hyb != nil:
		storageJ = st.hyb.Meter().TotalJ()
	case st.arr != nil:
		for _, m := range st.arr.Meters() {
			storageJ += m.TotalJ()
		}
	}
	res.EnergyByComponent["storage"] = storageJ
	if st.buffer != nil {
		res.EnergyByComponent["sram"] = st.buffer.Meter().TotalJ()
	}
	if dram != nil {
		res.EnergyByComponent["dram"] = dram.Meter().TotalJ()
	}
	res.EnergyJ = totalEnergy(st, dram) - warmSnapshot
}

// fillDeviceStats extracts device-specific counters.
func fillDeviceStats(res *Result, st *stack, dram dramCache) {
	if dram != nil {
		res.CacheHits = dram.Hits()
		res.CacheMisses = dram.Misses()
	}
	if st.disk != nil {
		res.SpinUps = st.disk.SpinUps()
		res.SpinDowns = st.disk.SpinDowns()
	}
	if st.buffer != nil {
		res.SRAMFlushes = st.buffer.Flushes()
		res.SRAMStalledWrites = st.buffer.StalledWrites()
	}
	if st.hyb != nil {
		res.SpinUps = st.hyb.Disk().SpinUps()
		res.SpinDowns = st.hyb.Disk().SpinDowns()
		card := st.hyb.Card()
		res.Erases = card.TotalErases()
		res.CopiedBlocks = card.CopiedBlocks()
		res.HostBlocks = card.HostBlocks()
		res.WriteStalls = card.Stalls()
	}
	var wear device.WearReporter
	if st.fdisk != nil {
		wear = st.fdisk
	}
	if st.hyb != nil {
		wear = st.hyb.Card()
	}
	if st.fcard != nil {
		wear = st.fcard
		res.Erases = st.fcard.TotalErases()
		res.CopiedBlocks = st.fcard.CopiedBlocks()
		res.HostBlocks = st.fcard.HostBlocks()
		res.WriteStalls = st.fcard.Stalls()
		res.CleaningTime = st.fcard.CleaningTime()
		res.HostTime = st.fcard.HostTime()
	}
	if st.arr != nil {
		wear = st.arr
		res.Erases = st.arr.TotalErases()
		res.CopiedBlocks = st.arr.CopiedBlocks()
		res.HostBlocks = st.arr.HostBlocks()
		res.WriteStalls = st.arr.Stalls()
		res.CleaningTime = st.arr.CleaningTime()
		res.HostTime = st.arr.HostTime()
	}
	if wear != nil {
		counts := wear.EraseCounts()
		var sum, max int64
		for _, c := range counts {
			sum += c
			if c > max {
				max = c
			}
		}
		res.MaxEraseCount = max
		if len(counts) > 0 {
			res.MeanEraseCount = float64(sum) / float64(len(counts))
		}
		if res.Erases == 0 {
			res.Erases = sum
		}
	}
}

// Footprint returns the storage footprint of a trace: the maximum
// concurrent bytes placed over its lifetime. Experiments use it to size
// flash devices relative to the workload.
func Footprint(t *trace.Trace) units.Bytes {
	return traceFootprint(t, t.BlockSize, t.MaxFileExtents())
}

// traceFootprint dry-runs the layout over the whole trace and returns the
// maximum concurrent placement high-water mark, block-rounded.
func traceFootprint(t *trace.Trace, blockSize units.Bytes, hints *trace.FileSizes) units.Bytes {
	l := trace.NewLayout(blockSize)
	for _, rec := range t.Records {
		switch rec.Op {
		case trace.Delete:
			l.Delete(rec.File)
		default:
			l.Place(rec.File, rec.Offset, hints.Get(rec.File))
		}
	}
	return l.HighWater()
}

// buildStack constructs the configured storage hierarchy, threading the
// fault injector (nil = fault injection off) into every device layer.
func buildStack(cfg Config, blockSize, footprint units.Bytes, inj *fault.Injector) (*stack, error) {
	if cfg.Array != nil {
		return buildArrayStack(cfg, blockSize, footprint, inj)
	}
	st := &stack{}
	var base device.Device

	switch cfg.Kind {
	case MagneticDisk:
		policy, err := spinPolicy(cfg)
		if err != nil {
			return nil, err
		}
		d, err := disk.New(cfg.Disk, disk.WithPolicy(policy), disk.WithScope(cfg.Scope), disk.WithFaults(inj))
		if err != nil {
			return nil, err
		}
		st.disk = d
		base = d

	case FlashDisk:
		if err := cfg.FlashDiskParams.Validate(); err != nil {
			return nil, err
		}
		capacity := flashCapacity(cfg, footprint, cfg.FlashDiskParams.SectorSize)
		opts := []flashdisk.Option{flashdisk.WithScope(cfg.Scope), flashdisk.WithFaults(inj)}
		if cfg.AsyncErase {
			opts = append(opts, flashdisk.WithAsyncErase())
		}
		f, err := flashdisk.New(cfg.FlashDiskParams, capacity, opts...)
		if err != nil {
			return nil, err
		}
		st.fdisk = f
		base = f

	case FlashCard:
		if err := cfg.FlashCardParams.Validate(); err != nil {
			return nil, err
		}
		seg := cfg.FlashCardParams.SegmentSize
		capacity := cfg.FlashCapacity
		stored := cfg.StoredData
		if stored < footprint {
			stored = footprint
		}
		if capacity == 0 {
			capacity = flashCapacity(cfg, footprint, seg)
			// Guarantee the cleaning reserve above the stored data and the
			// card's structural minimum of four segments. An explicit
			// capacity is taken as-is and rejected downstream if too small.
			if capacity < stored+3*seg {
				capacity = units.CeilDiv(stored, seg)*seg + 3*seg
			}
			// Spare segments are extra physical flash provisioned beyond the
			// nominal capacity; wear-out retirements consume them before any
			// usable capacity is lost.
			capacity += units.Bytes(inj.SpareUnits()) * seg
		}
		opts := []flashcard.Option{flashcard.WithScope(cfg.Scope), flashcard.WithFaults(inj)}
		if cfg.OnDemandCleaning {
			opts = append(opts, flashcard.WithOnDemandCleaning())
		}
		if cfg.WearLeveling > 0 {
			opts = append(opts, flashcard.WithWearLeveling(cfg.WearLeveling))
		}
		if cfg.CleaningPolicy != "" {
			p, ok := flashcard.Policies()[cfg.CleaningPolicy]
			if !ok {
				return nil, fmt.Errorf("core: unknown cleaning policy %q", cfg.CleaningPolicy)
			}
			opts = append(opts, flashcard.WithPolicy(p))
		}
		c, err := flashcard.New(cfg.FlashCardParams, capacity, blockSize, opts...)
		if err != nil {
			return nil, err
		}
		if err := c.Prefill(stored); err != nil {
			return nil, err
		}
		st.fcard = c
		base = c

	case FlashCache:
		// Constructed below, after the switch (it composes two devices).
	default:
		return nil, fmt.Errorf("core: unknown storage kind %d", cfg.Kind)
	}

	if cfg.Kind == FlashCache {
		cacheBytes := cfg.FlashCacheBytes
		if cacheBytes == 0 {
			cacheBytes = 4 * units.MB
		}
		h, err := hybrid.New(hybrid.Config{
			Disk:      cfg.Disk,
			SpinDown:  cfg.SpinDown,
			Card:      cfg.FlashCardParams,
			CacheSize: cacheBytes,
			BlockSize: blockSize,
			Scope:     cfg.Scope,
			Faults:    inj,
		})
		if err != nil {
			return nil, err
		}
		st.hyb = h
		base = h
	}

	if cfg.SRAMBytes > 0 {
		b, err := sram.New(*cfg.SRAM, cfg.SRAMBytes, blockSize, base, sram.WithScope(cfg.Scope), sram.WithFaults(inj))
		if err != nil {
			return nil, err
		}
		st.buffer = b
		base = b
	}
	st.top = base
	return st, nil
}

// buildArrayStack constructs a composite-array stack from cfg.Array: every
// member is built from the same parameter structs a single-device run uses,
// but carries its own fault injector — its fault domain — seeded
// independently per slot. The system injector keeps power failures and the
// shared violation ledger; it never injects member-level faults.
func buildArrayStack(cfg Config, blockSize, footprint units.Bytes, inj *fault.Injector) (*stack, error) {
	spec := cfg.Array
	n := len(spec.Members)

	// Mirror members each hold the full data set; stripe members hold a 1/N
	// round-robin share of the block address space (one extra block covers
	// the uneven remainder slot).
	stored := cfg.StoredData
	if stored < footprint {
		stored = footprint
	}
	memberStored := stored
	if spec.Mode == array.Stripe {
		memberStored = units.CeilDiv(stored, units.Bytes(n)) + blockSize
	}

	members := make([]array.Member, n)
	for i, kind := range spec.Members {
		minj := fault.NewInjector(cfg.MemberFaults.Member(i), fault.MemberSeed(cfg.FaultSeed, i), cfg.Scope)
		switch kind {
		case "flashcard":
			dev, err := buildMemberCard(cfg, blockSize, memberStored, minj)
			if err != nil {
				return nil, fmt.Errorf("core: array member %d: %w", i, err)
			}
			members[i] = array.Member{
				Dev: dev,
				Inj: minj,
				// Replacements are fresh fault-free cards: the dead slot's
				// plan already fired, and a rebuilt card starts unworn.
				Replace: func() (device.Device, error) {
					return buildMemberCard(cfg, blockSize, memberStored, nil)
				},
			}
		case "disk":
			d, err := buildMemberDisk(cfg, minj)
			if err != nil {
				return nil, fmt.Errorf("core: array member %d: %w", i, err)
			}
			members[i] = array.Member{
				Dev: d,
				Inj: minj,
				Replace: func() (device.Device, error) {
					return buildMemberDisk(cfg, nil)
				},
			}
		default:
			return nil, fmt.Errorf("core: array member %d: unknown kind %q", i, kind)
		}
	}

	arr, err := array.New(array.Config{
		Mode:      spec.Mode,
		BlockSize: blockSize,
		Scope:     cfg.Scope,
		SysInj:    inj,
	}, members)
	if err != nil {
		return nil, err
	}
	st := &stack{arr: arr}
	var base device.Device = arr
	if cfg.SRAMBytes > 0 {
		b, err := sram.New(*cfg.SRAM, cfg.SRAMBytes, blockSize, base, sram.WithScope(cfg.Scope), sram.WithFaults(inj))
		if err != nil {
			return nil, err
		}
		st.buffer = b
		base = b
	}
	st.top = base
	return st, nil
}

// buildMemberCard constructs one flash-card array member sized for its
// share of the stored data. A nil injector builds the fault-free
// replacement card used by mirror rebuilds.
func buildMemberCard(cfg Config, blockSize, stored units.Bytes, minj *fault.Injector) (device.Device, error) {
	if err := cfg.FlashCardParams.Validate(); err != nil {
		return nil, err
	}
	seg := cfg.FlashCardParams.SegmentSize
	capacity := cfg.FlashCapacity
	if capacity == 0 {
		capacity = units.CeilDiv(units.Bytes(float64(stored)/cfg.FlashUtilization), seg) * seg
		if capacity < stored+3*seg {
			capacity = units.CeilDiv(stored, seg)*seg + 3*seg
		}
		capacity += units.Bytes(minj.SpareUnits()) * seg
	}
	opts := []flashcard.Option{flashcard.WithScope(cfg.Scope), flashcard.WithFaults(minj)}
	if cfg.OnDemandCleaning {
		opts = append(opts, flashcard.WithOnDemandCleaning())
	}
	if cfg.WearLeveling > 0 {
		opts = append(opts, flashcard.WithWearLeveling(cfg.WearLeveling))
	}
	if cfg.CleaningPolicy != "" {
		p, ok := flashcard.Policies()[cfg.CleaningPolicy]
		if !ok {
			return nil, fmt.Errorf("core: unknown cleaning policy %q", cfg.CleaningPolicy)
		}
		opts = append(opts, flashcard.WithPolicy(p))
	}
	c, err := flashcard.New(cfg.FlashCardParams, capacity, blockSize, opts...)
	if err != nil {
		return nil, err
	}
	if err := c.Prefill(stored); err != nil {
		return nil, err
	}
	return c, nil
}

// buildMemberDisk constructs one magnetic-disk array member.
func buildMemberDisk(cfg Config, minj *fault.Injector) (device.Device, error) {
	policy, err := spinPolicy(cfg)
	if err != nil {
		return nil, err
	}
	return disk.New(cfg.Disk, disk.WithPolicy(policy), disk.WithScope(cfg.Scope), disk.WithFaults(minj))
}

// spinPolicy resolves the configured spin-down policy.
func spinPolicy(cfg Config) (disk.SpinPolicy, error) {
	switch cfg.SpinPolicy {
	case "":
		return disk.FixedThreshold{Threshold: cfg.SpinDown}, nil
	case "always-on":
		return disk.FixedThreshold{}, nil
	case "immediate":
		return disk.Immediate{}, nil
	case "adaptive":
		return disk.NewAdaptive(), nil
	default:
		return nil, fmt.Errorf("core: unknown spin policy %q", cfg.SpinPolicy)
	}
}

// flashCapacity derives the flash device capacity from the config: explicit
// capacity wins; otherwise stored-data ÷ utilization, rounded up to the
// erase unit.
func flashCapacity(cfg Config, footprint, unit units.Bytes) units.Bytes {
	if cfg.FlashCapacity > 0 {
		return cfg.FlashCapacity
	}
	stored := cfg.StoredData
	if stored < footprint {
		stored = footprint
	}
	capacity := units.Bytes(float64(stored) / cfg.FlashUtilization)
	return units.CeilDiv(capacity, unit) * unit
}
