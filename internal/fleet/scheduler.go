package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mobilestorage/internal/core"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/plot"
	"mobilestorage/internal/sweep"
	"mobilestorage/internal/trace"
)

// maxStoredErrors bounds the per-job error list in job status output.
const maxStoredErrors = 8

// maxPendingRuns caps expanded-but-unfinished runs across all jobs — the
// admission control for materialization memory (a max-size grid's RunSpec
// slice is ~100 MB).
const maxPendingRuns = 2 * maxRuns

// maxFinishedJobs bounds how many terminal jobs the service retains for
// GET /jobs; older finished jobs are dropped along with their per-job
// registry metrics, keeping a long-lived service's memory flat.
const maxFinishedJobs = 128

// errDraining rejects submissions during graceful shutdown; the HTTP layer
// maps it to 503.
var errDraining = errors.New("service is shutting down; not accepting jobs")

// errBusy rejects submissions that would exceed the pending-run cap; the
// HTTP layer maps it to 429.
var errBusy = errors.New("too many queued runs; retry after running jobs finish")

// Job states.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
)

// Job is one submitted grid: its expanded runs, live aggregate, and SSE
// broadcaster. All mutable state is guarded by mu.
type Job struct {
	ID      string
	Spec    Spec // normalized (defaults applied)
	Total   int
	Workers int

	ej        *expandedJob
	broadcast *Broadcaster
	cancel    context.CancelFunc
	finished  chan struct{} // closed when the merger drains

	mu      sync.Mutex
	state   string
	started int
	done    int
	failed  int
	errs    []string
	agg     *Aggregator
	created time.Time
	ended   time.Time
}

// Status is the GET /jobs/<id> body: job identity, progress, and the live
// fleet aggregate so far (the final aggregate once state is "done").
type Status struct {
	ID       string   `json:"id"`
	Name     string   `json:"name,omitempty"`
	State    string   `json:"state"`
	Total    int      `json:"total"`
	Started  int      `json:"started"`
	Done     int      `json:"done"`
	Failed   int      `json:"failed"`
	Workers  int      `json:"workers"`
	Errors   []string `json:"errors,omitempty"`
	Report   *Report  `json:"report"`
	Runtime  float64  `json:"runtime_s"`
	Finished bool     `json:"finished"`
}

// Status snapshots the job.
func (j *Job) Status() *Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.ended
	if end.IsZero() {
		end = time.Now()
	}
	return &Status{
		ID:       j.ID,
		Name:     j.Spec.Name,
		State:    j.state,
		Total:    j.Total,
		Started:  j.started,
		Done:     j.done,
		Failed:   j.failed,
		Workers:  j.Workers,
		Errors:   append([]string(nil), j.errs...),
		Report:   j.agg.Report(),
		Runtime:  end.Sub(j.created).Seconds(),
		Finished: j.state != StateRunning,
	}
}

// Chart renders one fleet figure from the job's current aggregate.
func (j *Job) Chart(kind string) (*plot.Chart, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.agg.Chart(kind)
}

// Events returns the job's SSE broadcaster.
func (j *Job) Events() *Broadcaster { return j.broadcast }

// Cancel stops dispatching new runs; in-flight runs complete and merge.
func (j *Job) Cancel() { j.cancel() }

// Finished reports completion without blocking.
func (j *Job) Finished() <-chan struct{} { return j.finished }

// progressEvent is the SSE "progress" payload.
type progressEvent struct {
	Job     string  `json:"job"`
	State   string  `json:"state"`
	Total   int     `json:"total"`
	Started int     `json:"started"`
	Done    int     `json:"done"`
	Failed  int     `json:"failed"`
	EnergyJ float64 `json:"energy_j"`
}

// samplePoint is one core-sampler snapshot forwarded over SSE.
type samplePoint struct {
	TUs     int64   `json:"t_us"`
	EnergyJ float64 `json:"energy_j"`
}

// sampleEvent is the SSE "sample" payload: one completed run's energy
// timeline from the simulated-time sampler.
type sampleEvent struct {
	Job    string        `json:"job"`
	Run    int           `json:"run"`
	Trace  string        `json:"trace"`
	Device string        `json:"device"`
	Points []samplePoint `json:"points"`
}

// Service owns job submission, the per-job worker pools, and the shared
// metrics registry. One Service backs one storagesim -serve process.
type Service struct {
	reg *obs.Registry

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	finished []string // terminal job IDs, oldest first, for retention eviction
	pending  int      // expanded-but-unfinished runs across all jobs
	nextID   int
	draining bool
	wg       sync.WaitGroup

	// maxPending and maxFinished are this service's copies of
	// maxPendingRuns and maxFinishedJobs, so a test can shrink them for its
	// own service without touching any other service's goroutines.
	maxPending  int
	maxFinished int
}

// NewService returns an idle service registering its metrics in reg (which
// may be nil — the obs API tolerates it).
func NewService(reg *obs.Registry) *Service {
	return &Service{reg: reg, jobs: map[string]*Job{},
		maxPending: maxPendingRuns, maxFinished: maxFinishedJobs}
}

// Get returns a job by ID, or nil.
func (s *Service) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// JobsSnapshot returns all jobs in submission order.
func (s *Service) JobsSnapshot() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Submit validates and expands a spec, assigns a job ID, and starts the
// run fan-out. It returns immediately; progress streams via the job's
// broadcaster and Status.
func (s *Service) Submit(spec Spec) (*Job, error) {
	// Validate and size the grid without materializing it, so admission
	// control — drain state and the fleet-wide pending-run cap — runs before
	// the expansion allocates anything proportional to the grid.
	v, err := validate(spec)
	if err != nil {
		return nil, err
	}
	workers := v.spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > v.total {
		workers = v.total
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	if s.pending+v.total > s.maxPending {
		queued := s.pending
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (%d runs queued, job adds %d, cap %d)",
			errBusy, queued, v.total, s.maxPending)
	}
	s.pending += v.total
	s.nextID++
	id := fmt.Sprintf("j%d", s.nextID)
	// Reserve the drain barrier with the run reservation: Shutdown observes
	// either the rejection above or a wg it must wait on.
	s.wg.Add(1)
	s.mu.Unlock()

	ej := v.materialize()
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:        id,
		Spec:      ej.spec,
		Total:     len(ej.runs),
		Workers:   workers,
		ej:        ej,
		broadcast: NewBroadcaster(),
		cancel:    cancel,
		finished:  make(chan struct{}),
		state:     StateRunning,
		agg:       NewAggregator(),
		created:   time.Now(),
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.reg.Counter("fleet.jobs.submitted").Inc()
	s.reg.Gauge("fleet.jobs.active").Add(1)
	s.reg.Gauge(jobMetric(id, "queue_depth")).Set(float64(j.Total))
	go s.run(ctx, j)
	return j, nil
}

func jobMetric(id, name string) string { return "fleet.job." + id + "." + name }

// runOut is one run's worker output.
type runOut struct {
	res  *core.Result
	figs *obsreport.FigureSet
	err  error
}

// run drives one job on sweep.Run: workers take run indices in ascending
// order and the merger folds completions back in strict index order, which
// is what makes the final report byte-identical for any worker count.
func (s *Service) run(ctx context.Context, j *Job) {
	defer s.wg.Done()
	started := s.reg.Counter(jobMetric(j.ID, "runs_started"))
	doneC := s.reg.Counter(jobMetric(j.ID, "runs_done"))
	failedC := s.reg.Counter(jobMetric(j.ID, "runs_failed"))
	depth := s.reg.Gauge(jobMetric(j.ID, "queue_depth"))
	busy := s.reg.Gauge(jobMetric(j.ID, "workers_busy"))

	cache := newTraceCache(j.Workers + 2)
	sweep.Run(ctx, len(j.ej.runs), j.Workers, func(idx int, emit func(runOut) bool) {
		j.mu.Lock()
		j.started++
		j.mu.Unlock()
		started.Inc()
		depth.Add(-1)
		busy.Add(1)
		res, figs, err := j.ej.runOne(j.ej.runs[idx], cache)
		busy.Add(-1)
		emit(runOut{res: res, figs: figs, err: err})
	}, func(idx int, o runOut) bool {
		s.mergeOne(j, idx, o, doneC, failedC)
		return true
	})

	s.finish(j, ctx.Err() != nil)
}

// mergeOne folds one run into the job aggregate and emits SSE frames.
func (s *Service) mergeOne(j *Job, idx int, o runOut, doneC, failedC *obs.Counter) {
	j.mu.Lock()
	if o.err != nil {
		j.failed++
		j.agg.AddFailure()
		if len(j.errs) < maxStoredErrors {
			j.errs = append(j.errs, fmt.Sprintf("run %d: %v", idx, o.err))
		}
		failedC.Inc()
	} else {
		j.agg.Add(o.res, o.figs)
		doneC.Inc()
	}
	j.done++
	ev := progressEvent{
		Job: j.ID, State: j.state, Total: j.Total,
		Started: j.started, Done: j.done, Failed: j.failed,
		EnergyJ: j.agg.energyJ,
	}
	j.mu.Unlock()

	if o.err == nil && o.res.Timeline != nil {
		rs := j.ej.runs[idx]
		se := sampleEvent{Job: j.ID, Run: idx, Trace: rs.Trace, Device: rs.Device}
		for _, p := range o.res.Timeline.Points {
			se.Points = append(se.Points, samplePoint{TUs: p.TUs, EnergyJ: p.Gauges[core.GaugeEnergyTotal]})
		}
		j.broadcast.Send("sample", mustJSON(se))
	}
	j.broadcast.Send("progress", mustJSON(ev))
}

// finish marks the job terminal, broadcasts the guaranteed final frame,
// drops the expanded grid (dead weight once every run has merged), and
// retires the oldest finished jobs past the retention cap — unregistering
// their per-job metrics so a long-lived service stays flat.
func (s *Service) finish(j *Job, cancelled bool) {
	j.mu.Lock()
	if cancelled && j.done < j.Total {
		j.state = StateCancelled
	} else {
		j.state = StateDone
	}
	j.ended = time.Now()
	j.ej = nil // up to maxRuns RunSpecs; everything is merged into j.agg now
	j.mu.Unlock()

	s.mu.Lock()
	s.pending -= j.Total
	s.finished = append(s.finished, j.ID)
	var evicted []string
	for len(s.finished) > s.maxFinished {
		id := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, id)
		evicted = append(evicted, id)
	}
	if len(evicted) > 0 {
		keep := s.order[:0]
		for _, id := range s.order {
			if _, ok := s.jobs[id]; ok {
				keep = append(keep, id)
			}
		}
		s.order = keep
	}
	s.mu.Unlock()

	for _, id := range evicted {
		s.reg.Unregister("fleet.job." + id + ".")
	}
	s.reg.Gauge("fleet.jobs.active").Add(-1)
	s.reg.Gauge(jobMetric(j.ID, "queue_depth")).Set(0)
	j.broadcast.Close("done", mustJSON(j.Status()))
	close(j.finished)
}

// Shutdown stops accepting jobs and drains in-flight work. It waits for
// running jobs until ctx expires, then cancels them (in-flight runs still
// complete and merge) and waits for the drain. The returned error is
// ctx.Err() when the deadline forced a cancel.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		// Snapshot at cancel time, not drain start: a submission admitted
		// just before draining flipped may register its job afterwards.
		for _, j := range s.JobsSnapshot() {
			j.Cancel()
		}
		<-drained
		return ctx.Err()
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // all payload types marshal by construction
	}
	return b
}

// runOne executes one grid cell: trace from the cache, config from the
// spec, a private FigureSet whose merged builders (mergedOf) observe the
// run's event stream, and — when sampling is on — a private registry for
// the simulated-time sampler.
func (ej *expandedJob) runOne(rs RunSpec, cache *traceCache) (*core.Result, *obsreport.FigureSet, error) {
	t, prep, err := cache.get(ej, rs)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := ej.buildConfig(rs, t, prep)
	if err != nil {
		return nil, nil, err
	}
	figs := obsreport.NewFigureSet()
	var reg *obs.Registry
	if ej.spec.SampleEveryS > 0 {
		reg = obs.NewRegistry()
	}
	cfg.Scope = obs.NewScope(reg, mergedOf(figs))
	res, err := core.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, figs, nil
}

// traceCache memoizes generated traces and their preps. Replica-outermost
// grid order means consecutive runs share a (trace, seed) pair, so a cache
// barely larger than the worker count gets near-perfect hits while bounding
// memory to a handful of traces. Generation is singleflighted: the first
// requester builds, concurrent requesters wait on its once.
type traceCache struct {
	cap   int
	mu    sync.Mutex
	m     map[traceKey]*traceEntry
	order []traceKey
}

type traceKey struct {
	name string
	seed int64
	ops  int
}

type traceEntry struct {
	once sync.Once
	t    *trace.Trace
	prep *core.TracePrep
	err  error
}

func newTraceCache(cap int) *traceCache {
	return &traceCache{cap: cap, m: map[traceKey]*traceEntry{}}
}

func (c *traceCache) get(ej *expandedJob, rs RunSpec) (*trace.Trace, *core.TracePrep, error) {
	key := traceKey{name: rs.Trace, seed: rs.Seed}
	if rs.Trace == "synth" {
		key.ops = ej.spec.SynthOps
	}
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &traceEntry{}
		c.m[key] = e
		c.order = append(c.order, key)
		if len(c.order) > c.cap {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.m, evict) // holders keep their entry pointer; only the map forgets
		}
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.t, e.err = ej.generateTrace(rs)
		if e.err == nil {
			e.prep = core.PrepareTrace(e.t)
		}
	})
	return e.t, e.prep, e.err
}
