package fleet

import (
	"sort"

	"mobilestorage/internal/core"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/plot"
	"mobilestorage/internal/stats"
)

// Aggregator folds per-run results into fleet-level aggregates in constant
// memory: distributions (log-bucketed histograms), totals, and Welford
// summaries — never per-run lists. It is not concurrency-safe; the
// scheduler's merger goroutine owns it and feeds results in strict run-index
// order, which makes the floating-point sums — and therefore the marshaled
// report — byte-identical for any worker count.
type Aggregator struct {
	figs mergedFigures // sleep distributions, stacked wear and cleaner work

	readHist  *stats.Histogram // response-time distributions across all runs (ms)
	writeHist *stats.Histogram
	read      stats.Summary
	write     stats.Summary

	energyJ      float64
	energyByComp map[string]float64
	energyPerRun *stats.Histogram // per-run total energy distribution (J)
	energyRuns   stats.Summary

	spinUps, spinDowns               int64
	erases, copiedBlocks, hostBlocks int64
	writeStalls                      int64
	cleaningUs, hostUs               int64
	cacheHits, cacheMisses           int64
	sramFlushes, sramStalled         int64
	measuredOps                      int64
	endTimeUs                        int64 // max simulated end time across runs
	runs, failed                     int
	faults                           FaultAgg
	sawFaults                        bool

	// Per-run count distributions over the runs under a fault plan: the
	// fleet forms of the faults and array figures, whose single-run charts
	// plot timestamps that do not merge across runs.
	faultsPerRun   *stats.Histogram // injected faults
	deathsPerRun   *stats.Histogram // member deaths
	rebuildsPerRun *stats.Histogram // mirror rebuilds
}

// energyBounds is the per-run energy layout, in joules: millijoules to a
// megajoule.
var energyBounds = stats.LogBounds(1e-3, 1e6)

// countBounds is the layout of the per-run count distributions: 1 to 10^9.
// A run with no events lands in the first bucket, with the runs that have
// one.
var countBounds = stats.LogBounds(1, 1e9)

// NewAggregator returns an empty fleet aggregator. The latency histograms
// use the core result layout (stats.NewLatencyHistogram) so per-run
// histograms merge in without rebucketing.
func NewAggregator() *Aggregator {
	return &Aggregator{
		figs:         mergedOf(obsreport.NewFigureSet()),
		readHist:     stats.NewLatencyHistogram(),
		writeHist:    stats.NewLatencyHistogram(),
		energyByComp: map[string]float64{},
		energyPerRun: stats.NewHistogram(energyBounds),

		faultsPerRun:   stats.NewHistogram(countBounds),
		deathsPerRun:   stats.NewHistogram(countBounds),
		rebuildsPerRun: stats.NewHistogram(countBounds),
	}
}

// AddFailure records a run that errored; its partial state contributes
// nothing.
func (a *Aggregator) AddFailure() { a.runs++; a.failed++ }

// Add folds one completed run in: its result, and the builders of figs
// that the fleet's figures merge (mergedOf). figs may be nil (the run was
// executed without a tracer); res must not be nil. Callers must add runs in
// run-index order for byte-reproducible reports.
func (a *Aggregator) Add(res *core.Result, figs *obsreport.FigureSet) {
	a.runs++
	if figs != nil {
		a.figs.merge(mergedOf(figs))
	}

	a.readHist.Merge(res.ReadHist)
	a.writeHist.Merge(res.WriteHist)
	a.read.Merge(res.Read)
	a.write.Merge(res.Write)

	a.energyJ += res.EnergyJ
	for _, comp := range sortedKeys(res.EnergyByComponent) {
		a.energyByComp[comp] += res.EnergyByComponent[comp]
	}
	a.energyPerRun.Add(res.EnergyJ)
	a.energyRuns.Add(res.EnergyJ)

	a.spinUps += res.SpinUps
	a.spinDowns += res.SpinDowns
	a.erases += res.Erases
	a.copiedBlocks += res.CopiedBlocks
	a.hostBlocks += res.HostBlocks
	a.writeStalls += res.WriteStalls
	a.cleaningUs += int64(res.CleaningTime)
	a.hostUs += int64(res.HostTime)
	a.cacheHits += res.CacheHits
	a.cacheMisses += res.CacheMisses
	a.sramFlushes += res.SRAMFlushes
	a.sramStalled += res.SRAMStalledWrites
	a.measuredOps += int64(res.MeasuredOps)
	if int64(res.EndTime) > a.endTimeUs {
		a.endTimeUs = int64(res.EndTime)
	}
	if f := res.Faults; f != nil {
		a.sawFaults = true
		a.faults.ReadFaults += f.ReadFaults
		a.faults.WriteFaults += f.WriteFaults
		a.faults.EraseFaults += f.EraseFaults
		a.faults.Retries += f.Retries
		a.faults.Exhausted += f.Exhausted
		a.faults.BackoffUs += int64(f.BackoffTime)
		a.faults.Remaps += f.Remaps
		a.faults.SparesExhausted += f.SparesExhausted
		a.faults.Reclaims += f.Reclaims
		a.faults.PowerFailures += f.PowerFailures
		a.faults.ReplayedBlocks += f.ReplayedBlocks
		a.faults.LostWrites += f.LostWrites
		a.faults.Violations += int64(len(f.Violations))
		a.faultsPerRun.Add(float64(f.ReadFaults + f.WriteFaults + f.EraseFaults))
		a.deathsPerRun.Add(float64(f.DeviceDeaths))
		a.rebuildsPerRun.Add(float64(f.Rebuilds))
	}
}

// mergedFigures holds the figure builders a fleet job merges across runs:
// timeline, wear and cleaning. It is each run's tracer, feeding only those
// builders and declaring only their kinds, and the aggregate's merged
// state. The latency, energy, faults and array figures are drawn from each
// Result, so a run's scope never builds the events only their builders
// read.
type mergedFigures struct {
	timeline *obsreport.TimelineBuilder
	wear     *obsreport.WearBuilder
	cleaning *obsreport.CleaningBuilder
}

// mergedOf returns the builders of s that a fleet job merges.
func mergedOf(s *obsreport.FigureSet) mergedFigures {
	return mergedFigures{timeline: s.Timeline, wear: s.Wear, cleaning: s.Cleaning}
}

// Kinds implements obs.KindFilter.
func (m mergedFigures) Kinds() obs.KindSet {
	return m.timeline.Kinds() | m.wear.Kinds() | m.cleaning.Kinds()
}

// Emit implements obs.Tracer.
func (m mergedFigures) Emit(e obs.Event) {
	m.timeline.Observe(e)
	m.wear.Observe(e)
	m.cleaning.Observe(e)
}

// merge folds src's builders into m's.
func (m mergedFigures) merge(src mergedFigures) {
	m.timeline.Merge(src.timeline)
	m.wear.Merge(src.wear)
	m.cleaning.Merge(src.cleaning)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LatAgg summarizes one operation class's response times across the fleet.
// Mean, max and σ are exact; the percentiles are interpolated inside the
// merged histogram's buckets and clamped to the observed range, so a
// percentile past the layout's top bucket reads the max.
type LatAgg struct {
	N        int64   `json:"n"`
	MeanMs   float64 `json:"mean_ms"`
	MaxMs    float64 `json:"max_ms"`
	StdDevMs float64 `json:"stddev_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// ComponentEnergy is one component's fleet-total energy.
type ComponentEnergy struct {
	Component string  `json:"component"`
	Joules    float64 `json:"joules"`
}

// EnergyAgg summarizes energy across the fleet: the grand total, the
// per-run distribution, and the per-component breakdown (sorted by name).
type EnergyAgg struct {
	TotalJ      float64           `json:"total_j"`
	MeanPerRunJ float64           `json:"mean_per_run_j"`
	MaxPerRunJ  float64           `json:"max_per_run_j"`
	P50PerRunJ  float64           `json:"p50_per_run_j"`
	P90PerRunJ  float64           `json:"p90_per_run_j"`
	ByComponent []ComponentEnergy `json:"by_component,omitempty"`
}

// SpinAgg totals disk spin activity.
type SpinAgg struct {
	Ups   int64 `json:"ups"`
	Downs int64 `json:"downs"`
}

// FlashAgg totals flash activity; WriteAmp is (host+copied)/host.
type FlashAgg struct {
	Erases       int64   `json:"erases"`
	CopiedBlocks int64   `json:"copied_blocks"`
	HostBlocks   int64   `json:"host_blocks"`
	WriteStalls  int64   `json:"write_stalls"`
	WriteAmp     float64 `json:"write_amp"`
	CleaningUs   int64   `json:"cleaning_us"`
	HostUs       int64   `json:"host_us"`
}

// CacheAgg totals DRAM cache and SRAM buffer activity.
type CacheAgg struct {
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hit_rate"`
	SRAMFlushes int64   `json:"sram_flushes"`
	SRAMStalled int64   `json:"sram_stalled"`
}

// FaultAgg totals injected-fault activity across the fleet.
type FaultAgg struct {
	ReadFaults      int64 `json:"read_faults"`
	WriteFaults     int64 `json:"write_faults"`
	EraseFaults     int64 `json:"erase_faults"`
	Retries         int64 `json:"retries"`
	Exhausted       int64 `json:"exhausted"`
	BackoffUs       int64 `json:"backoff_us"`
	Remaps          int64 `json:"remaps"`
	SparesExhausted int64 `json:"spares_exhausted"`
	Reclaims        int64 `json:"reclaims"`
	PowerFailures   int64 `json:"power_failures"`
	ReplayedBlocks  int64 `json:"replayed_blocks"`
	LostWrites      int64 `json:"lost_writes"`
	Violations      int64 `json:"violations"`
}

// Report is the fleet-level aggregate a job exposes over GET /jobs/<id>.
// Marshaling is deterministic (sorted components, fixed field order), so
// two aggregations that fold the same runs in the same order produce
// byte-identical JSON — the property the equivalence tests pin.
type Report struct {
	Runs        int       `json:"runs"`
	Failed      int       `json:"failed"`
	MeasuredOps int64     `json:"measured_ops"`
	MaxEndUs    int64     `json:"max_end_us"`
	Energy      EnergyAgg `json:"energy"`
	Read        LatAgg    `json:"read"`
	Write       LatAgg    `json:"write"`
	Spin        SpinAgg   `json:"spin"`
	Flash       FlashAgg  `json:"flash"`
	Cache       CacheAgg  `json:"cache"`
	Faults      *FaultAgg `json:"faults,omitempty"`
}

// Report snapshots the current aggregate. Safe to call mid-job from the
// merger goroutine's side of the lock; the aggregator keeps accumulating.
func (a *Aggregator) Report() *Report {
	r := &Report{
		Runs:        a.runs,
		Failed:      a.failed,
		MeasuredOps: a.measuredOps,
		MaxEndUs:    a.endTimeUs,
		Energy: EnergyAgg{
			TotalJ:      a.energyJ,
			MeanPerRunJ: a.energyRuns.Mean(),
			MaxPerRunJ:  a.energyRuns.Max(),
			P50PerRunJ:  a.energyPerRun.Quantile(0.50),
			P90PerRunJ:  a.energyPerRun.Quantile(0.90),
		},
		Read:  latAgg(&a.read, a.readHist),
		Write: latAgg(&a.write, a.writeHist),
		Spin:  SpinAgg{Ups: a.spinUps, Downs: a.spinDowns},
		Flash: FlashAgg{
			Erases:       a.erases,
			CopiedBlocks: a.copiedBlocks,
			HostBlocks:   a.hostBlocks,
			WriteStalls:  a.writeStalls,
			WriteAmp:     writeAmp(a.hostBlocks, a.copiedBlocks),
			CleaningUs:   a.cleaningUs,
			HostUs:       a.hostUs,
		},
		Cache: CacheAgg{
			Hits:        a.cacheHits,
			Misses:      a.cacheMisses,
			HitRate:     hitRate(a.cacheHits, a.cacheMisses),
			SRAMFlushes: a.sramFlushes,
			SRAMStalled: a.sramStalled,
		},
	}
	for _, comp := range sortedKeys(a.energyByComp) {
		r.Energy.ByComponent = append(r.Energy.ByComponent, ComponentEnergy{comp, a.energyByComp[comp]})
	}
	if a.sawFaults {
		f := a.faults
		r.Faults = &f
	}
	return r
}

func latAgg(s *stats.Summary, h *stats.Histogram) LatAgg {
	return LatAgg{
		N:        s.N(),
		MeanMs:   s.Mean(),
		MaxMs:    s.Max(),
		StdDevMs: s.StdDev(),
		P50Ms:    h.Quantile(0.50),
		P90Ms:    h.Quantile(0.90),
		P99Ms:    h.Quantile(0.99),
	}
}

func writeAmp(host, copied int64) float64 {
	if host == 0 {
		return 1
	}
	return float64(host+copied) / float64(host)
}

func hitRate(hits, misses int64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Chart renders one fleet-level figure. The kinds mirror single-run serve
// mode, and five are re-derived for merged state: timeline is the
// sleep-duration distribution (individual intervals are not retained across
// runs), energy is the per-run total-energy distribution (cumulative curves
// do not merge across independent simulated clocks), latency overlays the
// fleet read/write response-time histograms, and faults and array are the
// per-run distributions of injected faults, and of member deaths and mirror
// rebuilds, over the runs under a fault plan (their single-run charts plot
// per-run timestamps). wear and cleaning render from the merged builders.
func (a *Aggregator) Chart(kind string) (*plot.Chart, error) {
	switch kind {
	case "timeline":
		return obsreport.SleepChart(a.figs.timeline.Finish()), nil
	case "wear":
		return obsreport.WearChart(a.figs.wear.Finish()), nil
	case "cleaning":
		return obsreport.CleaningChart(a.figs.cleaning.Finish()), nil
	case "latency":
		c := &plot.Chart{
			Title:  "Fleet response-time distributions",
			XLabel: "response time (ms)",
			YLabel: "operations per bucket",
			LogX:   true,
		}
		if a.readHist.N > 0 {
			c.Series = append(c.Series, plot.Series{Name: "read", Step: true, Points: obsreport.HistPoints(a.readHist)})
		}
		if a.writeHist.N > 0 {
			c.Series = append(c.Series, plot.Series{Name: "write", Step: true, Points: obsreport.HistPoints(a.writeHist)})
		}
		return c, nil
	case "energy":
		return perRunChart("Per-run energy distribution", "energy per run (J)",
			plot.Series{Name: "runs", Points: obsreport.HistPoints(a.energyPerRun)}), nil
	case "faults":
		return perRunChart("Per-run injected faults", "injected faults per run",
			plot.Series{Name: "faults", Points: obsreport.HistPoints(a.faultsPerRun)}), nil
	case "array":
		return perRunChart("Per-run degraded-mode activity", "events per run",
			plot.Series{Name: "member deaths", Points: obsreport.HistPoints(a.deathsPerRun)},
			plot.Series{Name: "mirror rebuilds", Points: obsreport.HistPoints(a.rebuildsPerRun)}), nil
	default:
		return nil, obsreport.UnknownKindError(kind)
	}
}

// perRunChart renders per-run distributions as step outlines on a log
// axis, skipping the empty ones.
func perRunChart(title, xlabel string, series ...plot.Series) *plot.Chart {
	c := &plot.Chart{Title: title, XLabel: xlabel, YLabel: "runs per bucket", LogX: true}
	for _, s := range series {
		if len(s.Points) > 0 {
			s.Step = true
			c.Series = append(c.Series, s)
		}
	}
	return c
}
