package fleet

import (
	"encoding/json"
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
