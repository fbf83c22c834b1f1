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

// stack is the composed storage hierarchy for one run. base is the storage
// device — one device, the flash-cache hybrid, or an array — and top is
// what the replay drives: base itself, or the SRAM buffer in front of it.
// Statistics, energy and recovery checks read base through the device
// interfaces, so every kind of base follows one rule.
type stack struct {
	top    device.Device
	base   device.Device
	buffer *sram.Buffer
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
	recs := t.Records
	for i := range recs {
		rec := &recs[i] // in place: a range copy moves 32 bytes per record
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
	res, _, err := run(cfg)
	return res, err
}

// run is Run's replay. It also returns the stack it drove, so tests can
// read the devices after a run.
func run(cfg Config) (*Result, *stack, error) {
	cfg = cfg.withDefaults()
	if cfg.Trace == nil {
		return nil, nil, fmt.Errorf("core: no trace configured")
	}
	prep := cfg.Prep
	if prep == nil || prep.trace != cfg.Trace {
		prep = PrepareTrace(cfg.Trace)
	}
	if prep.err != nil {
		return nil, nil, prep.err
	}
	if err := cfg.validateNonTrace(); err != nil {
		return nil, nil, err
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
		return nil, nil, err
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
			return nil, nil, err
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
	traceHit, traceMiss := sc.Wants(obs.EvCacheHit), sc.Wants(obs.EvCacheMiss)
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
				if traceHit {
					sc.Emit(obs.Event{T: int64(rec.Time), Kind: obs.EvCacheHit, Size: int64(rec.Size)})
				}
				resp = dram.mem.AccessTime(rec.Size)
			} else {
				if traceMiss && dram != nil {
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
				res.ReadHist.AddDuration(stats.LatencyLayout, resp)
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
				res.WriteHist.AddDuration(stats.LatencyLayout, resp)
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
	res.Faults = faultReport(st, inj)
	if reg := sc.Registry(); reg != nil {
		res.Metrics = reg.Counters()
	}
	return res, st, nil
}

// crashAndRecover injects one power failure at the given instant and runs
// the recovery pass, checking the stack-level recovery invariants:
//
//   - a write-through DRAM cache never loses acknowledged writes (it holds
//     no dirty data); only the write-back ablation may report lost writes;
//   - the flash cards' cleaners never lose live blocks to a crash;
//   - the battery-backed SRAM buffer is empty after its recovery replay.
//
// Violations are recorded on the injector's report — tests fail on any.
func crashAndRecover(st *stack, dram dramCache, inj *fault.Injector, cfg Config, at units.Time) {
	st.top.Idle(at)
	inj.RecordPowerFail(at)

	preLive := liveBlocks(st.base)

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

	if post := liveBlocks(st.base); post < preLive {
		inj.Violatef("core: flash card lost %d live blocks across power failure t=%dµs", preLive-post, int64(at))
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

// parts returns the components of a storage device: a composite's parts
// (the hybrid's disk and card, an array's members), or the device itself.
func parts(d device.Device) []device.Device {
	if c, ok := d.(device.Composite); ok {
		return c.Parts()
	}
	return []device.Device{d}
}

// liveBlocks sums the live data blocks the flash cards among d's parts
// hold.
func liveBlocks(d device.Device) int64 {
	var n int64
	for _, p := range parts(d) {
		if lc, ok := p.(interface{ LiveBlocks() int64 }); ok {
			n += lc.LiveBlocks()
		}
	}
	return n
}

// storageEnergy returns the storage device's energy in joules. An array
// keeps no meter of its own: its energy is the in-order sum of its parts'
// meter totals, since merging them into one meter would reorder the float
// additions. Every other device, the hybrid included, reports its Meter.
func storageEnergy(base device.Device) float64 {
	a, ok := base.(*array.Array)
	if !ok {
		return base.Meter().TotalJ()
	}
	var j float64
	for _, m := range a.Meters() {
		j += m.TotalJ()
	}
	return j
}

// totalEnergy sums the storage, SRAM and DRAM energy.
func totalEnergy(st *stack, dram dramCache) float64 {
	j := storageEnergy(st.base)
	if st.buffer != nil {
		j += st.buffer.Meter().TotalJ()
	}
	if dram != nil {
		j += dram.Meter().TotalJ()
	}
	return j
}

// fillEnergy computes post-warm-start energy totals and the component
// breakdown.
func fillEnergy(res *Result, st *stack, dram dramCache, warmSnapshot float64) {
	res.EnergyByComponent["storage"] = storageEnergy(st.base)
	if st.buffer != nil {
		res.EnergyByComponent["sram"] = st.buffer.Meter().TotalJ()
	}
	if dram != nil {
		res.EnergyByComponent["dram"] = dram.Meter().TotalJ()
	}
	res.EnergyJ = totalEnergy(st, dram) - warmSnapshot
}

// fillDeviceStats extracts the cache, SRAM and device counters. The device
// counters and the wear figures sum over the storage device's parts, so a
// single device, the hybrid and an array (replaced members included)
// follow one rule.
func fillDeviceStats(res *Result, st *stack, dram dramCache) {
	if dram != nil {
		res.CacheHits = dram.Hits()
		res.CacheMisses = dram.Misses()
	}
	if st.buffer != nil {
		res.SRAMFlushes = st.buffer.Flushes()
		res.SRAMStalledWrites = st.buffer.StalledWrites()
	}
	// Wear sums each reporter's summary and never builds the per-unit
	// counts, which for a flash disk at MaxCapacity run to 64 MB.
	var eraseSum, eraseUnits int64
	for _, p := range parts(st.base) {
		if s, ok := p.(device.Spinner); ok {
			res.SpinUps += s.SpinUps()
			res.SpinDowns += s.SpinDowns()
		}
		if c, ok := p.(device.Cleaner); ok {
			res.Erases += c.TotalErases()
			res.CopiedBlocks += c.CopiedBlocks()
			res.HostBlocks += c.HostBlocks()
			res.WriteStalls += c.Stalls()
			res.CleaningTime += c.CleaningTime()
			res.HostTime += c.HostTime()
		}
		if w, ok := p.(device.WearReporter); ok {
			wear := w.Wear()
			eraseSum += wear.Sum
			res.MaxEraseCount = max(res.MaxEraseCount, wear.Max)
			eraseUnits += wear.Units
		}
	}
	if eraseUnits > 0 {
		res.MeanEraseCount = float64(eraseSum) / float64(eraseUnits)
	}
	if res.Erases == 0 {
		res.Erases = eraseSum
	}
}

// faultReport is the run's fault report: the system injector's, merged with
// an array's member reports and its own violations.
func faultReport(st *stack, inj *fault.Injector) *fault.Report {
	rep := inj.Report()
	a, ok := st.base.(*array.Array)
	if !ok {
		return rep
	}
	ar := a.FaultReport()
	if rep == nil {
		return ar
	}
	if ar != nil {
		rep.Merge(ar)
	}
	return rep
}

// MaxFootprint bounds the storage footprint of a trace Run accepts. The
// devices size their per-sector and per-segment state from the footprint,
// so one block written at a hostile offset such as 2^40 would otherwise
// allocate gigabytes, or overflow a slice length, before replay begins.
// 1 GiB is 30× the largest footprint of any generated trace (hp, 32 MB).
const MaxFootprint = units.GB

// MaxCapacity bounds the capacity of the flash card or flash disk Run
// stores the data on, and of each flash-card array member: an explicit
// FlashCapacity, one derived from the stored data and FlashUtilization, and
// the spare segments a fault plan adds alike. It also bounds the hybrid's
// FlashCacheBytes; the hybrid sizes its card at the cache size ÷ 0.6. The
// devices size their state from it, so -capacity, -stored or a cache size
// could otherwise ask for gigabytes or wrap a segment count. At 4 GiB a
// flash card keeps about 65 MB (two int32 per 512-byte block plus 29 bytes
// per segment) and a flash disk's wear report 64 MB (one int64 per 512-byte
// sector); an array holds up to 16 members. 4 GiB is 50× the largest card
// any experiment builds (Fig. 2's hp card, about 80 MB).
const MaxCapacity = 4 * units.GB

// checkCapacity rejects a flash capacity past MaxCapacity before a device
// constructor sizes its state from it.
func checkCapacity(capacity units.Bytes) error {
	if capacity > MaxCapacity {
		return fmt.Errorf("core: flash capacity %v exceeds the %v bound (core.MaxCapacity)", capacity, MaxCapacity)
	}
	return nil
}

// buildStack constructs the configured storage hierarchy, threading the
// fault injector (nil = fault injection off) into every device layer: the
// base device (an array or one device), wrapped in the SRAM buffer when one
// is configured. Flash devices preload the configured stored data, at least
// the trace's footprint; a footprint past MaxFootprint is an error.
func buildStack(cfg Config, blockSize, footprint units.Bytes, inj *fault.Injector) (*stack, error) {
	if footprint > MaxFootprint {
		return nil, fmt.Errorf("core: trace footprint %v exceeds the %v bound (core.MaxFootprint)", footprint, MaxFootprint)
	}
	stored := max(cfg.StoredData, footprint)
	var base device.Device
	var err error
	if cfg.Array != nil {
		base, err = buildArray(cfg, blockSize, stored, inj)
	} else {
		base, err = buildDevice(cfg, blockSize, stored, inj)
	}
	if err != nil {
		return nil, err
	}
	st := &stack{top: base, base: base}
	if cfg.SRAMBytes > 0 {
		b, err := sram.New(*cfg.SRAM, cfg.SRAMBytes, blockSize, base, sram.WithScope(cfg.Scope), sram.WithFaults(inj))
		if err != nil {
			return nil, err
		}
		st.top, st.buffer = b, b
	}
	return st, nil
}

// buildDevice constructs the single storage device cfg.Kind names.
func buildDevice(cfg Config, blockSize, stored units.Bytes, inj *fault.Injector) (device.Device, error) {
	switch cfg.Kind {
	case MagneticDisk:
		return newDisk(cfg, inj)

	case FlashDisk:
		if err := cfg.FlashDiskParams.Validate(); err != nil {
			return nil, err
		}
		capacity, err := flashCapacity(cfg, stored, cfg.FlashDiskParams.SectorSize)
		if err != nil {
			return nil, err
		}
		if err := checkCapacity(capacity); err != nil {
			return nil, err
		}
		opts := []flashdisk.Option{flashdisk.WithScope(cfg.Scope), flashdisk.WithFaults(inj)}
		if cfg.AsyncErase {
			opts = append(opts, flashdisk.WithAsyncErase())
		}
		return flashdisk.New(cfg.FlashDiskParams, capacity, opts...)

	case FlashCard:
		return newCard(cfg, blockSize, stored, inj)

	case FlashCache:
		cacheBytes := cfg.FlashCacheBytes
		if cacheBytes == 0 {
			cacheBytes = 4 * units.MB
		}
		if err := checkCapacity(cacheBytes); err != nil {
			return nil, err
		}
		return hybrid.New(hybrid.Config{
			Disk:      cfg.Disk,
			SpinDown:  cfg.SpinDown,
			Card:      cfg.FlashCardParams,
			CacheSize: cacheBytes,
			BlockSize: blockSize,
			Scope:     cfg.Scope,
			Faults:    inj,
		})

	default:
		return nil, fmt.Errorf("core: unknown storage kind %d", cfg.Kind)
	}
}

// buildArray constructs the composite array cfg.Array describes. Every
// member is built by the constructors a single-device run uses, but
// carries its own fault injector — its fault domain — seeded independently
// per slot. The system injector keeps power failures and the shared
// violation ledger; it never injects member-level faults.
func buildArray(cfg Config, blockSize, stored units.Bytes, inj *fault.Injector) (device.Device, error) {
	spec := cfg.Array
	n := len(spec.Members)

	// Mirror members each hold the full data set; stripe members hold a 1/N
	// round-robin share of the block address space (one extra block covers
	// the uneven remainder slot).
	if spec.Mode == array.Stripe {
		stored = units.CeilDiv(stored, units.Bytes(n)) + blockSize
	}

	members := make([]array.Member, n)
	for i, kind := range spec.Members {
		var build func(*fault.Injector) (device.Device, error)
		switch kind {
		case "flashcard":
			build = func(minj *fault.Injector) (device.Device, error) { return newCard(cfg, blockSize, stored, minj) }
		case "disk":
			build = func(minj *fault.Injector) (device.Device, error) { return newDisk(cfg, minj) }
		default:
			return nil, fmt.Errorf("core: array member %d: unknown kind %q", i, kind)
		}
		minj := fault.NewInjector(cfg.MemberFaults.Member(i), fault.MemberSeed(cfg.FaultSeed, i), cfg.Scope)
		dev, err := build(minj)
		if err != nil {
			return nil, fmt.Errorf("core: array member %d: %w", i, err)
		}
		members[i] = array.Member{
			Dev: dev,
			Inj: minj,
			// Replacements are fresh fault-free devices: the dead slot's
			// plan already fired, and a rebuilt card starts unworn.
			Replace: func() (device.Device, error) { return build(nil) },
		}
	}

	return array.New(array.Config{
		Mode:      spec.Mode,
		BlockSize: blockSize,
		SysInj:    inj,
	}, members)
}

// newCard constructs a flash card prefilled with stored bytes of live data.
// A nil injector builds the fault-free replacement a mirror rebuild uses.
func newCard(cfg Config, blockSize, stored units.Bytes, inj *fault.Injector) (device.Device, error) {
	if err := cfg.FlashCardParams.Validate(); err != nil {
		return nil, err
	}
	seg := cfg.FlashCardParams.SegmentSize
	capacity := cfg.FlashCapacity
	if capacity == 0 {
		var err error
		if capacity, err = flashCapacity(cfg, stored, seg); err != nil {
			return nil, err
		}
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
	if err := checkCapacity(capacity); err != nil {
		return nil, err
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
	return c, nil
}

// newDisk constructs a magnetic disk under the configured spin policy.
func newDisk(cfg Config, inj *fault.Injector) (device.Device, error) {
	policy, err := spinPolicy(cfg)
	if err != nil {
		return nil, err
	}
	return disk.New(cfg.Disk, disk.WithPolicy(policy), disk.WithScope(cfg.Scope), disk.WithFaults(inj))
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

// flashCapacity derives a flash device's capacity from the config: explicit
// capacity wins; otherwise stored data ÷ utilization, rounded up to the
// erase unit. A derived capacity past MaxCapacity is an error, found before
// the quotient is converted to bytes, which could overflow.
func flashCapacity(cfg Config, stored, unit units.Bytes) (units.Bytes, error) {
	if cfg.FlashCapacity > 0 {
		return cfg.FlashCapacity, nil
	}
	capacity := float64(stored) / cfg.FlashUtilization
	if capacity > float64(MaxCapacity) {
		return 0, fmt.Errorf("core: flash capacity for %v of stored data at %.0f%% utilization exceeds the %v bound (core.MaxCapacity)",
			stored, 100*cfg.FlashUtilization, MaxCapacity)
	}
	return units.CeilDiv(units.Bytes(capacity), unit) * unit, nil
}
