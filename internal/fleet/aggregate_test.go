package fleet

import (
	"encoding/json"
	"slices"
	"testing"

	"mobilestorage/internal/obs"
)

// runSpecJSON runs the job a POST /jobs body describes through
// Service.Submit and returns its final status, which must be done with no
// failed runs.
func runSpecJSON(t *testing.T, body string) *Status {
	t.Helper()
	var spec Spec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	st := runJob(t, NewService(obs.NewRegistry()), spec).Status()
	if st.State != StateDone || st.Failed != 0 {
		t.Fatalf("state %q with %d failed runs: %v", st.State, st.Failed, st.Errors)
	}
	return st
}

// Fig. 2's saturated point, mac on intel at 95% utilization: most writes
// take longer than the result layout's top bound (≈631 s), so the write
// percentiles fall in the overflow bucket. They must read the exact max,
// and the status must marshal; a +Inf percentile fails json.Marshal, and
// the service used to panic on it when the job finished.
func TestSaturatedJobReport(t *testing.T) {
	st := runSpecJSON(t, `{"traces":["mac"],"devices":["intel"],"utilizations":[0.95]}`)
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("status does not marshal: %v", err)
	}
	w := st.Report.Write
	if w.P50Ms != w.MaxMs || w.P90Ms != w.MaxMs || w.P99Ms != w.MaxMs {
		t.Errorf("write p50/p90/p99 %g/%g/%g, want the max %g", w.P50Ms, w.P90Ms, w.P99Ms, w.MaxMs)
	}
}

// The fleet's percentiles lie inside the observed range even for a short
// run, whose few samples sit well inside their buckets: interpolating
// toward a bucket's upper edge must not pass the max.
func TestFleetQuantilesWithinRange(t *testing.T) {
	st := runSpecJSON(t, `{"traces":["synth"],"synth_ops":50,"devices":["sdp5"],"seed":1}`)
	for name, l := range map[string]LatAgg{"read": st.Report.Read, "write": st.Report.Write} {
		if l.N == 0 {
			t.Fatalf("%s: no samples", name)
		}
		if !(l.P50Ms <= l.P90Ms && l.P90Ms <= l.P99Ms && l.P99Ms <= l.MaxMs) {
			t.Errorf("%s: p50/p90/p99/max %g/%g/%g/%g, want non-decreasing", name, l.P50Ms, l.P90Ms, l.P99Ms, l.MaxMs)
		}
	}
}

// A job under a fault plan draws its faults and array figures as per-run
// distributions: injected faults, and member deaths and mirror rebuilds
// (none here, since fleet runs are single devices). Every series counts
// every run. A job without a fault plan draws neither.
func TestFaultJobFigures(t *testing.T) {
	svc := NewService(obs.NewRegistry())
	j := runJob(t, svc, Spec{Traces: []string{"synth"}, SynthOps: 2000, Devices: []string{"intel"}, Replicas: 2,
		FaultPlans: []json.RawMessage{json.RawMessage(`{"write_error_rate":0.01,"power_fail_at_us":[5000000]}`)}})
	if f := j.Status().Report.Faults; f == nil || f.WriteFaults == 0 || f.PowerFailures == 0 {
		t.Fatalf("fault totals %+v, want write faults and power failures", f)
	}
	plain := runJob(t, svc, Spec{Traces: []string{"synth"}, SynthOps: 2000, Devices: []string{"intel"}})
	for kind, want := range map[string][]string{"faults": {"faults"}, "array": {"member deaths", "mirror rebuilds"}} {
		c, err := j.Chart(kind)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, s := range c.Series {
			names = append(names, s.Name)
			var runs float64
			for _, p := range s.Points {
				runs += p.Y
			}
			if runs != 2 {
				t.Errorf("%s/%s: %g runs, want 2", kind, s.Name, runs)
			}
		}
		if !slices.Equal(names, want) {
			t.Errorf("%s: series %q, want %q", kind, names, want)
		}
		if c, err := plain.Chart(kind); err != nil || len(c.Series) != 0 {
			t.Errorf("%s without a fault plan: %v series, err %v", kind, len(c.Series), err)
		}
	}
}
