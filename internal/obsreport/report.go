package obsreport

import (
	"math"
	"slices"
	"sort"
	"strings"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/units"
)

// Reporter is the incremental face of a report: feed it one event at a
// time. Builders implement it alongside a typed Finish method, and they
// are the only way into a report, so cmd/obsreport streams a
// multi-gigabyte NDJSON file (or stdin) through a decoder at constant
// memory, and an in-process run passes a FigureSet as its tracer, without
// ever materializing []obs.Event.
type Reporter interface {
	Observe(obs.Event)
}

// ---------------------------------------------------------------- timeline

// Interval is one closed span of simulated time, in microseconds.
type Interval struct {
	StartUs int64 `json:"start_us"`
	EndUs   int64 `json:"end_us"`
}

// DurationUs returns the interval length.
func (iv Interval) DurationUs() int64 { return iv.EndUs - iv.StartUs }

// DeviceTimeline reconstructs one device's power-state history from its
// spin-up/spin-down events: every completed sleep interval, the histogram
// of sleep durations (the idle-time distribution behind the paper's
// spin-down analysis), and totals.
type DeviceTimeline struct {
	Dev       string     `json:"dev"`
	SpinUps   int64      `json:"spin_ups"`
	SpinDowns int64      `json:"spin_downs"`
	Sleeps    []Interval `json:"sleeps"`
	// SleepHist is the distribution of completed sleep durations in
	// seconds.
	SleepHist *stats.Histogram `json:"sleep_hist"`
	// TotalSleepUs sums the completed sleep intervals.
	TotalSleepUs int64 `json:"total_sleep_us"`
	// OpenSleepUs is the start time of a trailing spin-down never followed
	// by a spin-up (the device ended the run asleep); -1 if none.
	OpenSleepUs int64 `json:"open_sleep_us"`
}

// sleepLayout covers sleep durations from 10 ms to ~28 h, in seconds.
var sleepLayout = stats.NewDurationLayout(stats.LogBounds(1e-2, 1e5), units.Second)

// TimelineBuilder derives per-device spin timelines incrementally. Events
// with an empty Dev field group under the empty name. Spin-up events carry
// the sleep duration they ended (Dur), so intervals are exact even if the
// stream starts mid-sleep.
type TimelineBuilder struct {
	byDev map[string]*DeviceTimeline
}

// NewTimelineBuilder returns an empty timeline builder.
func NewTimelineBuilder() *TimelineBuilder {
	return &TimelineBuilder{byDev: make(map[string]*DeviceTimeline)}
}

func (b *TimelineBuilder) get(dev string) *DeviceTimeline {
	tl, ok := b.byDev[dev]
	if !ok {
		tl = &DeviceTimeline{Dev: dev, SleepHist: sleepLayout.NewHistogram(), OpenSleepUs: -1}
		b.byDev[dev] = tl
	}
	return tl
}

// Kinds implements obs.KindFilter: the kinds Observe reads.
func (b *TimelineBuilder) Kinds() obs.KindSet {
	return obs.Kinds(obs.EvDiskSpinDown, obs.EvDiskSpinUp)
}

// Observe implements Reporter.
func (b *TimelineBuilder) Observe(e obs.Event) {
	switch e.Kind {
	case obs.EvDiskSpinDown:
		tl := b.get(e.Dev)
		tl.SpinDowns++
		tl.OpenSleepUs = e.T
	case obs.EvDiskSpinUp:
		tl := b.get(e.Dev)
		tl.SpinUps++
		iv := Interval{StartUs: e.T - e.Dur, EndUs: e.T}
		tl.Sleeps = append(tl.Sleeps, iv)
		tl.SleepHist.AddDuration(sleepLayout, units.Time(e.Dur))
		tl.TotalSleepUs += iv.DurationUs()
		tl.OpenSleepUs = -1
	}
}

// Finish returns the timelines in sorted device order. The builder may keep
// observing afterwards; Finish is a snapshot ordering, not a terminal state.
func (b *TimelineBuilder) Finish() []*DeviceTimeline {
	out := make([]*DeviceTimeline, 0, len(b.byDev))
	for _, tl := range b.byDev {
		out = append(out, tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dev < out[j].Dev })
	return out
}

// ----------------------------------------------------------------- latency

// latencyKinds are the event kinds whose Dur payload is a latency-like
// duration (service, drain, stall, or job time) — spin events carry sleep
// durations instead and are excluded.
const latencyKinds obs.KindSet = 1<<obs.EvSRAMFlush | 1<<obs.EvSRAMStall | 1<<obs.EvFlashDiskWrite |
	1<<obs.EvCardClean | 1<<obs.EvCardStall | 1<<obs.EvHybridDestage

// KindLatency summarizes the durations of one event kind.
type KindLatency struct {
	Kind   string  `json:"kind"`
	N      int64   `json:"n"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	// Hist is the underlying log-bucket distribution in milliseconds.
	Hist *stats.Histogram `json:"hist"`
}

// latencyLayout buckets durations in milliseconds from 1 µs to ≈1000 s: the
// 46-bound layout beside core's 45-bound result layout (see
// stats.NewLatencyHistogram).
var latencyLayout = stats.NewDurationLayout(stats.LogBounds(1e-3, 1e6), units.Millisecond)

// LatencyBuilder aggregates per-kind duration distributions incrementally.
type LatencyBuilder struct {
	hists map[obs.Kind]*stats.Histogram
}

// NewLatencyBuilder returns an empty latency builder.
func NewLatencyBuilder() *LatencyBuilder {
	return &LatencyBuilder{hists: make(map[obs.Kind]*stats.Histogram)}
}

// Kinds implements obs.KindFilter: the kinds Observe reads.
func (b *LatencyBuilder) Kinds() obs.KindSet { return latencyKinds }

// Observe implements Reporter.
func (b *LatencyBuilder) Observe(e obs.Event) {
	if !latencyKinds.Has(e.Kind) || e.Dur <= 0 {
		return
	}
	h, ok := b.hists[e.Kind]
	if !ok {
		h = latencyLayout.NewHistogram()
		b.hists[e.Kind] = h
	}
	h.AddDuration(latencyLayout, units.Time(e.Dur))
}

// Finish summarizes the distributions, sorted by kind: p50/p90/p99 are
// interpolated within buckets, mean and max are exact.
func (b *LatencyBuilder) Finish() []KindLatency {
	kinds := make([]obs.Kind, 0, len(b.hists))
	for k := range b.hists {
		kinds = append(kinds, k)
	}
	slices.SortFunc(kinds, func(x, y obs.Kind) int { return strings.Compare(x.String(), y.String()) })
	out := make([]KindLatency, 0, len(kinds))
	for _, k := range kinds {
		h := b.hists[k]
		out = append(out, KindLatency{
			Kind:   k.String(),
			N:      h.N,
			MeanMs: h.Mean(),
			P50Ms:  h.Quantile(0.50),
			P90Ms:  h.Quantile(0.90),
			P99Ms:  h.Quantile(0.99),
			MaxMs:  h.Max,
			Hist:   h,
		})
	}
	return out
}

// -------------------------------------------------------------------- wear

// SegmentWear is one erase unit's final erase count.
type SegmentWear struct {
	Segment int64 `json:"segment"`
	Erases  int64 `json:"erases"`
}

// WearReport is the per-segment erase/wear distribution from flashcard
// erase events (§5.2 endurance). Each flashcard.erase event carries the
// segment's cumulative count, so the final count per segment is the
// maximum observed.
type WearReport struct {
	Segments    []SegmentWear `json:"segments"`
	TotalErases int64         `json:"total_erases"`
	MaxErase    int64         `json:"max_erase"`
	MinErase    int64         `json:"min_erase"`
	MeanErase   float64       `json:"mean_erase"`
	// StdDevErase measures wear imbalance; Spread is max/mean (1.0 =
	// perfectly level).
	StdDevErase float64 `json:"stddev_erase"`
	Spread      float64 `json:"spread"`
}

// WearBuilder accumulates per-segment erase counts incrementally.
type WearBuilder struct {
	counts map[int64]int64
	total  int64
}

// NewWearBuilder returns an empty wear builder.
func NewWearBuilder() *WearBuilder {
	return &WearBuilder{counts: make(map[int64]int64)}
}

// Kinds implements obs.KindFilter: the kinds Observe reads.
func (b *WearBuilder) Kinds() obs.KindSet { return obs.Kinds(obs.EvCardErase) }

// Observe implements Reporter.
func (b *WearBuilder) Observe(e obs.Event) {
	if e.Kind != obs.EvCardErase {
		return
	}
	b.total++
	if e.Size > b.counts[e.Addr] {
		b.counts[e.Addr] = e.Size
	}
}

// Finish computes the wear distribution, segments sorted by index. The
// report is zero-valued when the stream has no flashcard.erase events (disk
// or flash-disk runs).
func (b *WearBuilder) Finish() *WearReport {
	counts, total := b.counts, b.total
	r := &WearReport{TotalErases: total}
	if len(counts) == 0 {
		return r
	}
	segs := make([]int64, 0, len(counts))
	for s := range counts {
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	var sum, sumSq float64
	r.MinErase = math.MaxInt64
	for _, s := range segs {
		c := counts[s]
		r.Segments = append(r.Segments, SegmentWear{Segment: s, Erases: c})
		if c > r.MaxErase {
			r.MaxErase = c
		}
		if c < r.MinErase {
			r.MinErase = c
		}
		sum += float64(c)
		sumSq += float64(c) * float64(c)
	}
	n := float64(len(segs))
	r.MeanErase = sum / n
	r.StdDevErase = math.Sqrt(sumSq/n - r.MeanErase*r.MeanErase)
	if r.MeanErase > 0 {
		r.Spread = float64(r.MaxErase) / r.MeanErase
	}
	return r
}

// ------------------------------------------------------------------ energy

// EnergyPoint is one cumulative energy sample.
type EnergyPoint struct {
	TUs    int64   `json:"t_us"`
	Joules float64 `json:"joules"`
}

// EnergySeries is one component's cumulative energy over simulated time.
type EnergySeries struct {
	Component string        `json:"component"`
	Points    []EnergyPoint `json:"points"`
}

// EnergyBuilder accumulates per-component energy samples incrementally.
// Note: the energy report is the one reporter whose memory grows with the
// stream — one point per sample — but samples are emitted at a fixed
// simulated-time interval, so even week-long runs stay small next to the
// raw event volume.
type EnergyBuilder struct {
	byComp map[string][]EnergyPoint
}

// NewEnergyBuilder returns an empty energy builder.
func NewEnergyBuilder() *EnergyBuilder {
	return &EnergyBuilder{byComp: make(map[string][]EnergyPoint)}
}

// Kinds implements obs.KindFilter: the kinds Observe reads.
func (b *EnergyBuilder) Kinds() obs.KindSet { return obs.Kinds(obs.EvEnergySample) }

// Observe implements Reporter.
func (b *EnergyBuilder) Observe(e obs.Event) {
	if e.Kind != obs.EvEnergySample {
		return
	}
	b.byComp[e.Dev] = append(b.byComp[e.Dev], EnergyPoint{TUs: e.T, Joules: float64(e.Size) / 1e6})
}

// Finish returns the series in sorted component order; it is empty when
// the run was not sampled (storagesim -sample enables it).
func (b *EnergyBuilder) Finish() []EnergySeries {
	comps := make([]string, 0, len(b.byComp))
	for c := range b.byComp {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	out := make([]EnergySeries, 0, len(comps))
	for _, c := range comps {
		out = append(out, EnergySeries{Component: c, Points: b.byComp[c]})
	}
	return out
}

// ---------------------------------------------------------------- cleaning

// CleaningReport summarizes the flash-card cleaner's work from
// flashcard.clean/copy/erase/stall events: how often it ran, how much live
// data it relocated (the §5.3 overhead that grows with utilization), and
// the distribution of live blocks per victim segment (cleaning efficiency:
// fewer live blocks per clean is better).
type CleaningReport struct {
	Cleans       int64 `json:"cleans"`
	CopiedBlocks int64 `json:"copied_blocks"`
	Stalls       int64 `json:"stalls"`
	// LivePerClean is the distribution of live blocks copied out per
	// cleaning job.
	LivePerClean *stats.Histogram `json:"live_per_clean"`
	// MeanLivePerClean is CopiedBlocks / Cleans.
	MeanLivePerClean float64 `json:"mean_live_per_clean"`
	// TotalCleanUs sums cleaning job durations.
	TotalCleanUs int64 `json:"total_clean_us"`
	// IndexEngine and IndexAmp carry the workload-level write amplification
	// from an index.writeamp event (index-engine traces only): the bytes the
	// engine physically wrote over the bytes the workload logically changed.
	// The cleaner's own amplification multiplies on top of this, so total
	// flash wear per logical byte is the product of the two. Empty/zero when
	// the stream has no index.writeamp event.
	IndexEngine       string  `json:"index_engine,omitempty"`
	IndexLogicalBytes int64   `json:"index_logical_bytes,omitempty"`
	IndexWrittenBytes int64   `json:"index_written_bytes,omitempty"`
	IndexAmp          float64 `json:"index_amp,omitempty"`
}

// liveBounds covers live-blocks-per-clean from 1 to 100k.
var liveBounds = stats.LogBounds(1, 1e5)

// CleaningBuilder accumulates cleaner work incrementally.
type CleaningBuilder struct {
	r *CleaningReport
}

// NewCleaningBuilder returns an empty cleaning builder.
func NewCleaningBuilder() *CleaningBuilder {
	return &CleaningBuilder{r: &CleaningReport{LivePerClean: stats.NewHistogram(liveBounds)}}
}

// Kinds implements obs.KindFilter: the kinds Observe reads.
func (b *CleaningBuilder) Kinds() obs.KindSet {
	return obs.Kinds(obs.EvCardClean, obs.EvCardStall, obs.EvIndexWriteAmp)
}

// Observe implements Reporter.
func (b *CleaningBuilder) Observe(e obs.Event) {
	switch e.Kind {
	case obs.EvCardClean:
		b.r.Cleans++
		b.r.CopiedBlocks += e.Size
		b.r.TotalCleanUs += e.Dur
		b.r.LivePerClean.Add(float64(e.Size))
	case obs.EvCardStall:
		b.r.Stalls++
	case obs.EvIndexWriteAmp:
		// One summary event per run; on merged shards the last one wins,
		// matching concatenated-stream replay order.
		b.r.IndexEngine = e.Dev
		b.r.IndexLogicalBytes = e.Addr
		b.r.IndexWrittenBytes = e.Size
	}
}

// Finish computes the derived means and returns the report.
func (b *CleaningBuilder) Finish() *CleaningReport {
	if b.r.Cleans > 0 {
		b.r.MeanLivePerClean = float64(b.r.CopiedBlocks) / float64(b.r.Cleans)
	}
	if b.r.IndexLogicalBytes > 0 {
		b.r.IndexAmp = float64(b.r.IndexWrittenBytes) / float64(b.r.IndexLogicalBytes)
	}
	return b.r
}
