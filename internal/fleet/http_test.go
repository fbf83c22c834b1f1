package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(obs.NewRegistry())
	mux := http.NewServeMux()
	svc.RegisterRoutes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %s", resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Errorf("Location %q for job %q", loc, st.ID)
	}
	return st
}

func pollDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Finished {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestJobAPIGridLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	st := postJob(t, ts, `{
		"name": "grid",
		"devices": ["cu140", "intel"],
		"utilizations": [0.7, 0.9],
		"synth_ops": 200,
		"replicas": 2,
		"workers": 4
	}`)
	if st.Total != 8 {
		t.Fatalf("total %d, want 8 (2 devices × 2 utilizations × 2 replicas)", st.Total)
	}
	final := pollDone(t, ts, st.ID)
	if final.State != StateDone || final.Done != 8 || final.Failed != 0 {
		t.Fatalf("final status: %+v", final)
	}
	if final.Report == nil || final.Report.Energy.TotalJ <= 0 {
		t.Fatalf("final report missing aggregates: %+v", final.Report)
	}

	// The list endpoint includes the job.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []Status
	err = json.NewDecoder(resp.Body).Decode(&all)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != st.ID {
		t.Errorf("GET /jobs: %+v", all)
	}
}

func TestJobAPIRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct {
		name, body string
		code       int
	}{
		{"malformed JSON", `{"devices": [`, http.StatusBadRequest},
		{"unknown field", `{"devicez": ["cu140"]}`, http.StatusBadRequest},
		{"unknown device", `{"devices": ["floppy"]}`, http.StatusBadRequest},
		{"bad utilization", `{"utilizations": [2.0]}`, http.StatusBadRequest},
		{"too many synth ops", `{"synth_ops": 1000001}`, http.StatusBadRequest},
		{"trailing data", `{"devices":["cu140"],"synth_ops":200} trailing garbage`, http.StatusBadRequest},
		{"two specs", `{"synth_ops":200} {"synth_ops":300}`, http.StatusBadRequest},
		{"unknown cleaning policy", `{"devices":["intel"],"cleaning":["bogus"]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: got %s, want %d", c.name, resp.Status, c.code)
		}
	}

	resp, err := http.Get(ts.URL + "/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s", resp.Status)
	}
}

func TestJobPlotEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	st := postJob(t, ts, `{"synth_ops": 300, "sample_every_s": 1}`)
	pollDone(t, ts, st.ID)

	// The dashboard links and embeds every figure kind for every job.
	for _, kind := range obsreport.FigureKinds() {
		resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/plot/" + kind)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 512)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("plot %s: %s (%s)", kind, resp.Status, body[:n])
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
			t.Errorf("plot %s: content type %q", kind, ct)
		}
		if !strings.Contains(string(body[:n]), "<svg") {
			t.Errorf("plot %s: no SVG in body", kind)
		}
	}

	// Unknown kinds 404 with a body naming the valid ones.
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/plot/pie")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 512)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown kind: %s", resp.Status)
	}
	for _, kind := range []string{"timeline", "latency", "energy"} {
		if !strings.Contains(string(body[:n]), kind) {
			t.Errorf("404 body does not list %q: %s", kind, body[:n])
		}
	}
}

// An SSE client sees ordered frames ending in a terminal "done" frame —
// satellite 3's wire-level check, over a real connection.
func TestSSEClientOrderingAndDone(t *testing.T) {
	_, ts := newTestServer(t)
	st := postJob(t, ts, `{"devices": ["cu140", "sdp10"], "synth_ops": 300, "replicas": 3, "workers": 2}`)

	resp, err := http.Get(ts.URL + "/events/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /events: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	type frame struct {
		id    int
		event string
		data  string
	}
	var frames []frame
	cur := frame{id: -1}
	sawRetry := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
			}
			if cur.event == "done" {
				goto scanned
			}
			cur = frame{id: -1}
		case strings.HasPrefix(line, "retry: "):
			sawRetry = true
		case strings.HasPrefix(line, "id: "):
			cur.id, err = strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
scanned:
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawRetry {
		t.Error("no retry: prelude")
	}
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	for i, f := range frames {
		if f.id < 0 {
			t.Errorf("frame %d has no id: %+v", i, f)
		}
		if i > 0 && f.id <= frames[i-1].id {
			t.Errorf("frame IDs not increasing: %d then %d", frames[i-1].id, f.id)
		}
		if !json.Valid([]byte(f.data)) {
			t.Errorf("frame %d data is not JSON: %q", i, f.data)
		}
	}
	last := frames[len(frames)-1]
	if last.event != "done" {
		t.Fatalf("terminal frame event %q, want done", last.event)
	}
	var final Status
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if !final.Finished || final.Done != 6 {
		t.Errorf("terminal status: %+v", final)
	}
}

func TestSubmitDuringDrainReturns503(t *testing.T) {
	svc, ts := newTestServer(t)
	// Drain an idle service, then POST.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST during drain: %s, want 503", resp.Status)
	}
}

func TestSubmitBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	big := fmt.Sprintf(`{"name": %q}`, strings.Repeat("x", maxSpecBytes))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized spec: %s, want 400", resp.Status)
	}
}
