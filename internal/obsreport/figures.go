package obsreport

import (
	"fmt"
	"io"
	"strings"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/plot"
)

// Report is one report kind bound to its builder: feed it events, then
// render it. NewReport hands one out, and FigureSet.Chart renders through
// one.
type Report interface {
	Reporter
	// Write renders the report in format f.
	Write(w io.Writer, f Format) error
	// Chart renders the report as a figure.
	Chart() *plot.Chart
	// Diff compares the report, as run A, with o, as run B: the -vs delta
	// table. o must be a report of the same kind.
	Diff(o Report) []DeltaRow
}

// reportKinds declares every report kind once, in presentation order: its
// name, and its builder in a FigureSet bound to the kind's writer, chart
// and diff. A new kind is one row here plus its FigureSet field.
var reportKinds = []struct {
	name string
	of   func(*FigureSet) Report
}{
	{"timeline", func(s *FigureSet) Report { return bind(s.Timeline, WriteTimelines, TimelineChart, DiffTimelines) }},
	{"latency", func(s *FigureSet) Report { return bind(s.Latency, WriteLatency, LatencyChart, DiffLatency) }},
	{"wear", func(s *FigureSet) Report { return bind(s.Wear, WriteWear, WearChart, DiffWear) }},
	{"energy", func(s *FigureSet) Report { return bind(s.Energy, WriteEnergy, EnergyChart, DiffEnergy) }},
	{"cleaning", func(s *FigureSet) Report { return bind(s.Cleaning, WriteCleaning, CleaningChart, DiffCleaning) }},
	{"faults", func(s *FigureSet) Report { return bind(s.Faults, WriteFaults, FaultsChart, DiffFaults) }},
	{"array", func(s *FigureSet) Report { return bind(s.Array, WriteArray, ArrayChart, DiffArray) }},
}

// bound adapts a builder whose Finish returns R to Report through its
// kind's renderers.
type bound[R any] struct {
	Reporter
	finish func() R
	write  func(io.Writer, R, Format) error
	chart  func(R) *plot.Chart
	diff   func(a, b R) []DeltaRow
}

func bind[R any, B interface {
	Reporter
	Finish() R
}](b B, write func(io.Writer, R, Format) error, chart func(R) *plot.Chart, diff func(a, b R) []DeltaRow) Report {
	return &bound[R]{b, b.Finish, write, chart, diff}
}

func (r *bound[R]) Write(w io.Writer, f Format) error { return r.write(w, r.finish(), f) }
func (r *bound[R]) Chart() *plot.Chart                { return r.chart(r.finish()) }
func (r *bound[R]) Diff(o Report) []DeltaRow          { return r.diff(r.finish(), o.(*bound[R]).finish()) }

// FigureKinds lists every report kind, in presentation order. These are the
// <report> arguments of cmd/obsreport and the /plot/<report> endpoint paths
// of storagesim's serve mode.
func FigureKinds() []string {
	names := make([]string, len(reportKinds))
	for i, k := range reportKinds {
		names[i] = k.name
	}
	return names
}

// UnknownKindError formats the 404/usage message for an unrecognized report
// kind, listing the valid ones.
func UnknownKindError(kind string) error {
	return fmt.Errorf("unknown report %q (valid reports: %s)", kind, strings.Join(FigureKinds(), ", "))
}

// NewReport returns an empty report of the named kind, or UnknownKindError.
func NewReport(kind string) (Report, error) {
	return NewFigureSet().lookup(kind)
}

// lookup binds the set's builder for the named kind.
func (s *FigureSet) lookup(kind string) (Report, error) {
	for _, k := range reportKinds {
		if k.name == kind {
			return k.of(s), nil
		}
	}
	return nil, UnknownKindError(kind)
}

// FigureSet bundles one builder per report kind so a single event stream
// populates every figure at once — the live aggregation behind storagesim's
// /plot/<report> endpoints. A fleet run fills only the timeline, wear and
// cleaning builders, the ones its job merges (see internal/fleet).
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

// Chart renders the named report kind from the current state. Unknown
// kinds return UnknownKindError. Snapshot semantics follow the builders:
// the set may keep observing afterwards.
func (s *FigureSet) Chart(kind string) (*plot.Chart, error) {
	r, err := s.lookup(kind)
	if err != nil {
		return nil, err
	}
	return r.Chart(), nil
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
