package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"mobilestorage/internal/obs"
)

// smallSpec is a fast multi-device grid for scheduler tests.
func smallSpec(workers int) Spec {
	return Spec{
		Devices:      []string{"cu140", "sdp10", "intel"},
		Traces:       []string{"synth"},
		SynthOps:     300,
		Utilizations: []float64{0.8},
		Replicas:     4,
		Seed:         7,
		Workers:      workers,
	}
}

func runJob(t *testing.T, svc *Service, spec Spec) *Job {
	t.Helper()
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Finished():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}
	return j
}

// The acceptance property of the whole scheduler: the fleet report is
// byte-identical no matter how many workers raced to produce it, because
// shards merge in run-index order. Run with -race.
func TestWorkerCountEquivalence(t *testing.T) {
	var reports [][]byte
	for _, workers := range []int{1, 5} {
		svc := NewService(obs.NewRegistry())
		j := runJob(t, svc, smallSpec(workers))
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("workers=%d: state %q, errors %v", workers, st.State, st.Errors)
		}
		if st.Failed != 0 {
			t.Fatalf("workers=%d: %d failed runs: %v", workers, st.Failed, st.Errors)
		}
		if st.Done != 12 {
			t.Fatalf("workers=%d: %d runs done, want 12", workers, st.Done)
		}
		b, err := json.Marshal(st.Report)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, b)
	}
	if string(reports[0]) != string(reports[1]) {
		t.Errorf("1-worker and 5-worker reports differ:\n%s\n%s", reports[0], reports[1])
	}
}

// A grid of 1000+ runs completes with the aggregate holding distributions
// and totals only — no per-run lists survive the merge.
func TestLargeGridConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-run grid in -short mode")
	}
	svc := NewService(obs.NewRegistry())
	spec := Spec{
		Devices:      []string{"cu140", "sdp10"},
		SynthOps:     60,
		Utilizations: []float64{0.5, 0.8, 0.9, 0.95, 0.99},
		Replicas:     100, // 2 × 5 × 100 = 1000 runs
		Workers:      8,
	}
	j := runJob(t, svc, spec)
	st := j.Status()
	if st.State != StateDone || st.Done != 1000 || st.Failed != 0 {
		t.Fatalf("state %q done %d failed %d, errors %v", st.State, st.Done, st.Failed, st.Errors)
	}
	if st.Report.Energy.TotalJ <= 0 {
		t.Error("no energy aggregated")
	}
	if st.Report.Read.N == 0 || st.Report.Read.P99Ms <= 0 {
		t.Errorf("read latency aggregate empty: %+v", st.Report.Read)
	}

	// Constant-memory check: the merged builders must not have retained any
	// per-run series — sleep intervals, fault timestamps, or energy samples.
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, tl := range j.agg.figs.Timeline.Finish() {
		if len(tl.Sleeps) != 0 {
			t.Errorf("aggregate retained %d sleep intervals for %s", len(tl.Sleeps), tl.Dev)
		}
	}
	fr := j.agg.figs.Faults.Finish()
	for _, d := range fr.Devices {
		if len(d.InjectionTimesUs) != 0 {
			t.Errorf("aggregate retained %d injection timestamps for %s", len(d.InjectionTimesUs), d.Dev)
		}
	}
	if got := j.agg.energyPerRun.N; got != 1000 {
		t.Errorf("per-run energy distribution has %d samples, want 1000", got)
	}
	if es := j.agg.figs.Energy.Finish(); len(es) != 0 {
		t.Errorf("aggregate retained %d energy series", len(es))
	}
}

func TestJobProgressFrames(t *testing.T) {
	svc := NewService(obs.NewRegistry())
	j, err := svc.Submit(smallSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := j.Events().Subscribe()
	defer cancel()

	var lastProgress progressEvent
	sawDone := false
	deadline := time.After(60 * time.Second)
	for !sawDone {
		select {
		case f, ok := <-ch:
			if !ok {
				t.Fatal("stream closed without a done frame")
			}
			switch f.Event {
			case "progress":
				var ev progressEvent
				if err := json.Unmarshal(f.Data, &ev); err != nil {
					t.Fatalf("bad progress payload %q: %v", f.Data, err)
				}
				if ev.Done < lastProgress.Done {
					t.Errorf("progress went backwards: %d after %d", ev.Done, lastProgress.Done)
				}
				lastProgress = ev
			case "done":
				var st Status
				if err := json.Unmarshal(f.Data, &st); err != nil {
					t.Fatalf("bad done payload: %v", err)
				}
				if !st.Finished || st.Done != 12 {
					t.Errorf("done frame: %+v", st)
				}
				sawDone = true
			}
		case <-deadline:
			t.Fatal("no done frame")
		}
	}
}

// SampleEveryS wires the core simulated-time sampler into the SSE feed.
func TestSampleFrames(t *testing.T) {
	svc := NewService(obs.NewRegistry())
	spec := Spec{SynthOps: 500, SampleEveryS: 1}
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := j.Events().Subscribe()
	defer cancel()

	sawSample := false
	for f := range ch {
		if f.Event != "sample" {
			continue
		}
		var ev sampleEvent
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			t.Fatalf("bad sample payload: %v", err)
		}
		if len(ev.Points) == 0 {
			t.Error("sample frame with no points")
		}
		for _, p := range ev.Points {
			if p.EnergyJ < 0 {
				t.Errorf("negative energy sample: %+v", p)
			}
		}
		sawSample = true
	}
	if !sawSample {
		t.Error("no sample frames despite sample_every_s")
	}
}

func TestShutdownDrains(t *testing.T) {
	svc := NewService(obs.NewRegistry())
	j, err := svc.Submit(smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := j.Status(); st.State != StateDone || st.Done != 12 {
		t.Errorf("after drain: state %q done %d", st.State, st.Done)
	}
	// Draining service rejects new work.
	if _, err := svc.Submit(Spec{}); err == nil {
		t.Error("Submit accepted during shutdown")
	}
}

func TestShutdownDeadlineCancels(t *testing.T) {
	svc := NewService(obs.NewRegistry())
	// A big enough grid that the immediate deadline fires mid-job.
	spec := Spec{SynthOps: 2000, Replicas: 400, Workers: 2}
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: drain falls through to cancellation
	if err := svc.Shutdown(ctx); err == nil {
		t.Error("Shutdown returned nil despite expired context")
	}
	select {
	case <-j.Finished():
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled job did not finish")
	}
	st := j.Status()
	if st.State != StateCancelled && st.Done != st.Total {
		t.Errorf("after forced shutdown: %+v", st)
	}
	// The terminal frame still arrives for cancelled jobs.
	ch, cancelSub := j.Events().Subscribe()
	defer cancelSub()
	last := Frame{}
	for f := range ch {
		last = f
	}
	if last.Event != "done" {
		t.Errorf("terminal frame event %q", last.Event)
	}
}

// Admission control sizes the grid before materializing it: a job that
// would push the fleet-wide pending-run total past the cap is rejected with
// errBusy, and capacity frees up again once jobs finish.
func TestSubmitPendingRunCap(t *testing.T) {
	svc := NewService(obs.NewRegistry())
	svc.maxPending = 4
	_, err := svc.Submit(Spec{SynthOps: 50, Replicas: 5})
	if !errors.Is(err, errBusy) {
		t.Fatalf("oversized submission: err = %v, want errBusy", err)
	}
	// Within the cap it runs; afterwards the reservation is released.
	runJob(t, svc, Spec{SynthOps: 50, Replicas: 4})
	if _, err := svc.Submit(Spec{SynthOps: 50, Replicas: 4}); err != nil {
		t.Fatalf("submission after capacity freed: %v", err)
	}
}

// Finished jobs drop their expanded grid immediately and are retired past
// the retention cap, taking their per-job registry metrics with them.
func TestFinishedJobRetention(t *testing.T) {
	reg := obs.NewRegistry()
	svc := NewService(reg)
	svc.maxFinished = 2
	var jobs []*Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, runJob(t, svc, Spec{SynthOps: 50}))
	}
	first := jobs[0]
	first.mu.Lock()
	if first.ej != nil {
		t.Error("finished job retained its expanded grid")
	}
	first.mu.Unlock()
	if svc.Get(first.ID) != nil {
		t.Errorf("job %s not retired past the retention cap", first.ID)
	}
	if got := svc.JobsSnapshot(); len(got) != 2 {
		t.Errorf("%d jobs listed, want 2", len(got))
	}
	if snap := reg.String(); containsStr(snap, jobMetric(first.ID, "runs_done")) {
		t.Errorf("retired job's metrics still registered:\n%s", snap)
	}
	// The retained jobs keep theirs.
	if snap := reg.String(); !containsStr(snap, jobMetric(jobs[2].ID, "runs_done")) {
		t.Errorf("live job's metrics missing:\n%s", snap)
	}
}

func TestSubmitMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	svc := NewService(reg)
	j := runJob(t, svc, Spec{SynthOps: 100})
	if got := reg.Gauge(jobMetric(j.ID, "queue_depth")).Value(); got != 0 {
		t.Errorf("queue depth after completion = %g", got)
	}
	if got := reg.Gauge("fleet.jobs.active").Value(); got != 0 {
		t.Errorf("active jobs after completion = %g", got)
	}
	snap := reg.String()
	for _, want := range []string{
		jobMetric(j.ID, "runs_started"),
		jobMetric(j.ID, "runs_done"),
		"fleet.jobs.submitted",
	} {
		if !containsStr(snap, want) {
			t.Errorf("registry missing %q:\n%s", want, snap)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (haystack == needle || len(needle) == 0 ||
		indexOf(haystack, needle) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
