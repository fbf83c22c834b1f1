package obsreport

import (
	"fmt"
	"strings"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/plot"
)

// FigureKinds lists every report kind that renders as a figure, in
// presentation order. These are the <report> arguments of cmd/obsreport and
// the /plot/<report> endpoint paths of storagesim's serve mode.
func FigureKinds() []string {
	return []string{"timeline", "latency", "wear", "energy", "cleaning", "faults", "array"}
}

// UnknownKindError formats the 404/usage message for an unrecognized report
// kind, listing the valid ones.
func UnknownKindError(kind string) error {
	return fmt.Errorf("unknown report %q (valid reports: %s)", kind, strings.Join(FigureKinds(), ", "))
}

// FigureSet bundles one builder per report kind so a single event stream
// populates every figure at once — the live aggregation behind storagesim's
// /plot/<report> endpoints and the per-run shard state of a fleet job.
//
// A FigureSet is not safe for concurrent use; callers that feed it from one
// goroutine and render from another (the serve-mode live figures) wrap it
// in a mutex.
type FigureSet struct {
	Timeline *TimelineBuilder
	Latency  *LatencyBuilder
	Wear     *WearBuilder
	Energy   *EnergyBuilder
	Cleaning *CleaningBuilder
	Faults   *FaultsBuilder
	Array    *ArrayBuilder
}

// NewFigureSet returns an empty builder per report kind.
func NewFigureSet() *FigureSet {
	return &FigureSet{
		Timeline: NewTimelineBuilder(),
		Latency:  NewLatencyBuilder(),
		Wear:     NewWearBuilder(),
		Energy:   NewEnergyBuilder(),
		Cleaning: NewCleaningBuilder(),
		Faults:   NewFaultsBuilder(),
		Array:    NewArrayBuilder(),
	}
}

// Kinds implements obs.KindFilter: the union of the kinds the builders
// read, so a Scope over the set never builds an event no figure reads.
func (s *FigureSet) Kinds() obs.KindSet {
	return s.Timeline.Kinds() | s.Latency.Kinds() | s.Wear.Kinds() | s.Energy.Kinds() |
		s.Cleaning.Kinds() | s.Faults.Kinds() | s.Array.Kinds()
}

// Emit implements obs.Tracer, so a set can be a Scope's tracer directly.
func (s *FigureSet) Emit(e obs.Event) { s.Observe(e) }

// Observe implements Reporter by fanning the event to every builder; each
// keeps only the kinds it understands.
func (s *FigureSet) Observe(e obs.Event) {
	s.Timeline.Observe(e)
	s.Latency.Observe(e)
	s.Wear.Observe(e)
	s.Energy.Observe(e)
	s.Cleaning.Observe(e)
	s.Faults.Observe(e)
	s.Array.Observe(e)
}

// Merge folds another set's accumulated state into s, builder by builder.
// The energy builder is the exception: per-run energy series are cumulative
// curves over each run's own simulated clock, so merging them across runs
// is meaningless (and unbounded) — fleet aggregation summarizes energy as a
// per-run distribution instead (see internal/fleet).
func (s *FigureSet) Merge(o *FigureSet) {
	if o == nil || s == o {
		return
	}
	s.Timeline.Merge(o.Timeline)
	s.Latency.Merge(o.Latency)
	s.Wear.Merge(o.Wear)
	s.Cleaning.Merge(o.Cleaning)
	s.Faults.Merge(o.Faults)
	s.Array.Merge(o.Array)
}

// Chart renders the named report kind from the current state. Unknown
// kinds return UnknownKindError. Snapshot semantics follow the builders:
// the set may keep observing afterwards.
func (s *FigureSet) Chart(kind string) (*plot.Chart, error) {
	switch kind {
	case "timeline":
		return TimelineChart(s.Timeline.Finish()), nil
	case "latency":
		return LatencyChart(s.Latency.Finish()), nil
	case "wear":
		return WearChart(s.Wear.Finish()), nil
	case "energy":
		return EnergyChart(s.Energy.Finish()), nil
	case "cleaning":
		return CleaningChart(s.Cleaning.Finish()), nil
	case "faults":
		return FaultsChart(s.Faults.Finish()), nil
	case "array":
		return ArrayChart(s.Array.Finish()), nil
	default:
		return nil, UnknownKindError(kind)
	}
}

// SleepChart renders per-device sleep-duration distributions as step
// outlines over the log-spaced buckets — the timeline figure for merged
// builders, where individual sleep intervals are not retained (fleet runs
// overlap in time, so only the distribution is meaningful).
func SleepChart(tls []*DeviceTimeline) *plot.Chart {
	c := &plot.Chart{
		Title:  "Sleep duration distribution",
		XLabel: "sleep duration (s)",
		YLabel: "sleeps per bucket",
		LogX:   true,
	}
	for _, tl := range tls {
		if tl.SleepHist == nil || tl.SleepHist.N == 0 {
			continue
		}
		name := tl.Dev
		if name == "" {
			name = "(unnamed)"
		}
		c.Series = append(c.Series, plot.Series{Name: name, Step: true, Points: HistPoints(tl.SleepHist)})
	}
	return c
}
