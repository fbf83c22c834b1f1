package core

import (
	"mobilestorage/internal/cache"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// runReference is the frozen reference replay loop: a verbatim copy of Run
// as it stood before the hot-path overhaul, wired to the frozen reference
// implementations (trace.RefLayout, cache.RefCache, map-based file-size
// hints) and to interface-dispatched device calls. The differential test
// harness (internal/core/difftest) replays every configuration through both
// loops and requires byte-identical results.
//
// Do not optimize this function or share hot-loop code with Run — its whole
// value is being the slow, obviously-correct path the fast one is diffed
// against. Setup, teardown, and crash helpers are shared (via the dramCache
// interface) because they are not part of the replay loop under test.
func runReference(cfg Config) (*Result, error) {
	cfg.Reference = false
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := cfg.Trace
	blockSize := t.BlockSize

	// Preprocess with the frozen structures: map hints and the map-backed
	// layout, so device sizing is derived independently of the fast path.
	hints := t.MaxFileSizes()
	footprint := refTraceFootprint(t, blockSize, hints)

	inj := fault.NewInjector(cfg.Faults, cfg.FaultSeed, cfg.Scope)

	st, err := buildStack(cfg, blockSize, footprint, inj)
	if err != nil {
		return nil, err
	}
	var dram *cache.RefCache
	if cfg.DRAMBytes > 0 {
		dram, err = cache.NewRef(*cfg.DRAM, cfg.DRAMBytes, blockSize, cfg.WriteBack, cfg.Scope)
		if err != nil {
			return nil, err
		}
	}
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

	layout := trace.NewRefLayout(blockSize)
	warmIdx := t.WarmSplit(cfg.WarmFraction)
	var warmSnapshot float64
	snapshotTaken := warmIdx == 0

	crashes := inj.PowerFailSchedule()
	ci := 0

	var lastCompletion units.Time
	for i, rec := range t.Records {
		for ci < len(crashes) && crashes[ci] <= rec.Time {
			crashAndRecover(st, dc, inj, cfg, crashes[ci])
			ci++
		}
		st.top.Idle(rec.Time)
		smp.Tick(int64(rec.Time))
		if !snapshotTaken && i >= warmIdx {
			if dram != nil {
				dram.AccrueStandby(rec.Time)
			}
			warmSnapshot = totalEnergy(st, dc)
			snapshotTaken = true
		}

		switch rec.Op {
		case trace.Delete:
			off, size, ok := layout.Extent(rec.File)
			if !ok {
				continue // deleting a file the trace never touched
			}
			if dram != nil {
				dram.Invalidate(off, size)
			}
			st.top.Access(device.Request{Time: rec.Time, Op: trace.Delete, File: rec.File, Addr: off, Size: size})
			layout.Delete(rec.File)

		case trace.Read:
			addr := layout.Place(rec.File, rec.Offset, hints[rec.File])
			var resp units.Time
			hit := false
			if dram != nil && dram.Contains(addr, rec.Size) {
				hit = true
				if traceHit {
					sc.Emit(obs.Event{T: int64(rec.Time), Kind: obs.EvCacheHit, Size: int64(rec.Size)})
				}
				resp = dram.AccessTime(rec.Size)
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
					writeEvictedRef(st, dram.Insert(addr, rec.Size, false), completion)
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
			addr := layout.Place(rec.File, rec.Offset, hints[rec.File])
			var resp units.Time
			if cfg.WriteBack && dram != nil {
				// Write-back ablation: the write completes at DRAM speed;
				// dirty evictions trickle out asynchronously.
				resp = dram.AccessTime(rec.Size)
				writeEvictedRef(st, dram.Insert(addr, rec.Size, true), rec.Time+resp)
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
					dram.AccessTime(rec.Size) // parallel cache update energy
					writeEvictedRef(st, dram.Insert(addr, rec.Size, false), completion)
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
	for ; ci < len(crashes) && crashes[ci] <= end; ci++ {
		crashAndRecover(st, dc, inj, cfg, crashes[ci])
	}
	if cfg.WriteBack && dram != nil {
		writeEvictedRef(st, dram.DirtyExtents(), end)
	}
	st.top.Finish(end)
	if dram != nil {
		dram.AccrueStandby(end)
	}

	smp.Finish(int64(end))
	res.Timeline = smp.Timeline()

	res.EndTime = end
	fillEnergy(res, st, dc, warmSnapshot)
	fillDeviceStats(res, st, dc)
	res.Faults = faultReport(st, inj)
	if reg := sc.Registry(); reg != nil {
		res.Metrics = reg.Counters()
	}
	return res, nil
}

// writeEvictedRef is writeEvicted with interface dispatch, kept separate so
// the reference loop exercises none of the devirtualized paths.
func writeEvictedRef(st *stack, extents []cache.Extent, at units.Time) {
	for _, e := range extents {
		st.top.Access(device.Request{
			Time: at, Op: trace.Write, File: ^uint32(0), Addr: e.Addr, Size: e.Size,
		})
	}
}

// refTraceFootprint computes Footprint on the frozen layout and map hints.
func refTraceFootprint(t *trace.Trace, blockSize units.Bytes, hints map[uint32]units.Bytes) units.Bytes {
	l := trace.NewRefLayout(blockSize)
	for _, rec := range t.Records {
		switch rec.Op {
		case trace.Delete:
			l.Delete(rec.File)
		default:
			l.Place(rec.File, rec.Offset, hints[rec.File])
		}
	}
	return l.HighWater()
}
