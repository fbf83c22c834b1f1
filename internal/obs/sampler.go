package obs

// The simulated-time sampler turns the metrics registry into a time series:
// core.Run ticks it with each trace record's arrival time, and whenever a
// sampling boundary is crossed it snapshots every counter and gauge into a
// Timeline point. Curves (energy over time, cleaning growth, wear) become
// first-class run outputs instead of post-hoc event-stream reconstructions.
//
// Sampling is driven entirely by simulated time, so timelines are exactly
// reproducible across runs and immune to host speed. The nil *Sampler is a
// valid no-op, keeping the disabled path to one nil check per trace record.

// SamplePoint is one snapshot of the registry at a simulated instant.
type SamplePoint struct {
	// TUs is the simulated snapshot time in microseconds.
	TUs int64
	// Counters and Gauges are the registry state at TUs, keyed by name.
	Counters map[string]int64
	Gauges   map[string]float64
}

// Timeline is the ordered sequence of samples from one run: points at every
// interval boundary crossed, plus one final point at the run's end time.
type Timeline struct {
	// IntervalUs is the sampling interval in microseconds.
	IntervalUs int64
	Points     []SamplePoint
}

// Counter returns the series of one counter across the timeline (zero where
// a point lacks the name, e.g. before the metric's first registration).
func (tl *Timeline) Counter(name string) []int64 {
	if tl == nil {
		return nil
	}
	out := make([]int64, len(tl.Points))
	for i, p := range tl.Points {
		out[i] = p.Counters[name]
	}
	return out
}

// Gauge returns the series of one gauge across the timeline.
func (tl *Timeline) Gauge(name string) []float64 {
	if tl == nil {
		return nil
	}
	out := make([]float64, len(tl.Points))
	for i, p := range tl.Points {
		out[i] = p.Gauges[name]
	}
	return out
}

// Sampler snapshots a registry at fixed simulated-time intervals. Drive it
// with Tick as simulated time advances and Finish once at the end of the
// run. Not safe for concurrent use: it belongs to the single simulation
// loop that owns the clock.
type Sampler struct {
	reg        *Registry
	intervalUs int64
	nextUs     int64
	// prepare, when non-nil, runs before every snapshot with the snapshot
	// time; the owner uses it to refresh derived gauges (e.g. cumulative
	// energy) and emit sample events.
	prepare func(tUs int64)
	tl      Timeline
}

// NewSampler returns a sampler over reg taking a snapshot every intervalUs
// of simulated time. Returns nil (a valid no-op sampler) if reg is nil or
// the interval is not positive.
func NewSampler(reg *Registry, intervalUs int64, prepare func(tUs int64)) *Sampler {
	if reg == nil || intervalUs <= 0 {
		return nil
	}
	return &Sampler{
		reg:        reg,
		intervalUs: intervalUs,
		nextUs:     intervalUs,
		prepare:    prepare,
		tl:         Timeline{IntervalUs: intervalUs},
	}
}

// Tick advances simulated time to nowUs, snapshotting once per interval
// boundary crossed since the previous call. Snapshot points are labelled
// with the boundary time; their values are the registry state as of the
// first Tick at or past the boundary, which for core.Run means "after all
// trace records strictly before this record". Nil-safe.
func (s *Sampler) Tick(nowUs int64) {
	if s == nil || nowUs < s.nextUs {
		return
	}
	for nowUs >= s.nextUs {
		s.snapshot(s.nextUs)
		s.nextUs += s.intervalUs
	}
}

// Finish records the final point at the run's end time (even off-boundary),
// so the last sample always equals the run's final counter state. Nil-safe.
func (s *Sampler) Finish(endUs int64) {
	if s == nil {
		return
	}
	for endUs > s.nextUs {
		s.snapshot(s.nextUs)
		s.nextUs += s.intervalUs
	}
	if n := len(s.tl.Points); n == 0 || s.tl.Points[n-1].TUs < endUs {
		s.snapshot(endUs)
	}
}

// Timeline returns the accumulated timeline (nil for a nil sampler).
func (s *Sampler) Timeline() *Timeline {
	if s == nil {
		return nil
	}
	return &s.tl
}

func (s *Sampler) snapshot(tUs int64) {
	if s.prepare != nil {
		s.prepare(tUs)
	}
	s.tl.Points = append(s.tl.Points, SamplePoint{
		TUs:      tUs,
		Counters: s.reg.Counters(),
		Gauges:   s.reg.Gauges(),
	})
}
