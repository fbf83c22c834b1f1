package core

import (
	"fmt"
	"strings"

	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/units"
)

// Result reports one simulation run in the shape of the paper's tables:
// total energy in joules plus mean/max/σ response times in milliseconds,
// split by reads and writes, over the post-warm-start portion of the trace.
type Result struct {
	TraceName string
	Device    string

	// EnergyJ is total post-warm-start energy across all components.
	EnergyJ float64
	// EnergyByComponent breaks EnergyJ down ("storage", "dram", "sram").
	EnergyByComponent map[string]float64

	// Read, Write, and Overall are response-time summaries in ms.
	Read    stats.Summary
	Write   stats.Summary
	Overall stats.Summary

	// ReadHist and WriteHist are log-bucketed latency distributions (ms),
	// for percentile reporting beyond the paper's mean/max/σ.
	ReadHist  *stats.Histogram
	WriteHist *stats.Histogram

	// Cache effectiveness (zero when no DRAM cache is configured).
	CacheHits   int64
	CacheMisses int64

	// Disk-specific.
	SpinUps   int64
	SpinDowns int64

	// Flash-specific.
	Erases         int64   // total erase operations
	MaxEraseCount  int64   // most-erased unit (§5.2 endurance)
	MeanEraseCount float64 // mean erasures per unit
	CopiedBlocks   int64   // cleaner relocations (write amplification)
	HostBlocks     int64   // host blocks written
	WriteStalls    int64   // writes that waited for erased space
	// CleaningTime and HostTime split the flash card's busy time between
	// cleaning (copy+erase) and host transfers; their ratio is eNVy's
	// "fraction of time spent erasing or copying" metric (§6).
	CleaningTime units.Time
	HostTime     units.Time

	// SRAM write-buffer activity (zero without an SRAM buffer).
	SRAMFlushes       int64 // background drains performed
	SRAMStalledWrites int64 // writes that waited for a drain

	// Run shape.
	MeasuredOps int        // operations contributing to statistics
	EndTime     units.Time // completion time of the run

	// Faults summarizes injected faults and device responses: fault counts
	// by class, retries, backoff time, remaps, power failures, recovery
	// replays, and any invariant violations. Nil when fault injection is
	// disabled. Deterministic for a given trace, plan, and seed.
	Faults *fault.Report

	// Metrics is a snapshot of the observability counters at the end of the
	// run, keyed by metric name. Nil unless Config.Scope carried a registry.
	Metrics map[string]int64

	// Timeline is the simulated-time sampler output: registry snapshots
	// every Config.SampleEvery plus a final point at EndTime. Nil unless
	// sampling was enabled. Its last point matches Metrics exactly.
	Timeline *obs.Timeline
}

// ReadP returns an upper bound on the q-quantile of read response time in
// ms (e.g. ReadP(0.99)); 0 without samples.
func (r *Result) ReadP(q float64) float64 {
	if r.ReadHist == nil {
		return 0
	}
	return r.ReadHist.QuantileBound(q)
}

// WriteP returns an upper bound on the q-quantile of write response time.
func (r *Result) WriteP(q float64) float64 {
	if r.WriteHist == nil {
		return 0
	}
	return r.WriteHist.QuantileBound(q)
}

// CleaningFraction returns cleaning time over total flash busy time
// (eNVy's §6 metric), or 0 for non-flash-card runs.
func (r *Result) CleaningFraction() float64 {
	total := r.CleaningTime + r.HostTime
	if total == 0 {
		return 0
	}
	return float64(r.CleaningTime) / float64(total)
}

// HitRate returns the DRAM cache hit rate, or 0 without a cache.
func (r *Result) HitRate() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// WriteAmplification returns (host+copied)/host blocks, or 1 when no blocks
// were written.
func (r *Result) WriteAmplification() float64 {
	if r.HostBlocks == 0 {
		return 1
	}
	return float64(r.HostBlocks+r.CopiedBlocks) / float64(r.HostBlocks)
}

// String renders the result as one paper-style table row.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: energy %.0f J", r.Device, r.TraceName, r.EnergyJ)
	fmt.Fprintf(&b, ", read ms mean=%.2f max=%.2f σ=%.2f", r.Read.Mean(), r.Read.Max(), r.Read.StdDev())
	fmt.Fprintf(&b, ", write ms mean=%.2f max=%.2f σ=%.2f", r.Write.Mean(), r.Write.Max(), r.Write.StdDev())
	return b.String()
}
