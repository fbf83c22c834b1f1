package main

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"mobilestorage/internal/fleet"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/units"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cache.hits").Add(42)
	reg.Gauge("energy.total_j").Set(3.5)

	shutdown, addr, err := startServer("127.0.0.1:0", reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	base := "http://" + addr

	code, body := getBody(t, base+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz: %d %q", code, body)
	}

	code, body = getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE storagesim_cache_hits_total counter",
		"storagesim_cache_hits_total 42",
		"storagesim_energy_total_j 3.5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Live registry: a scrape after more activity sees the new value.
	reg.Counter("cache.hits").Add(8)
	_, body = getBody(t, base+"/metrics")
	if !strings.Contains(body, "storagesim_cache_hits_total 50") {
		t.Error("second scrape did not observe the counter increment")
	}

	code, body = getBody(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d", code)
	}
	code, _ = getBody(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}

	code, _ = getBody(t, base+"/nope")
	if code != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", code)
	}

	// No live figures attached: /plot exists but reports 404, not a panic.
	code, _ = getBody(t, base+"/plot")
	if code != http.StatusNotFound {
		t.Errorf("/plot without a live plot: %d, want 404", code)
	}
}

func TestServePlot(t *testing.T) {
	plot := newLiveFigures()
	// Feed the tracer the way a run does: energy samples interleaved with
	// events the plot must ignore.
	plot.Emit(obs.Event{T: 1_000_000, Kind: obs.EvCacheHit, Size: 512})
	plot.Emit(obs.Event{T: 1_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 2_000_000})
	plot.Emit(obs.Event{T: 2_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 3_500_000})
	plot.Emit(obs.Event{T: 2_000_000, Kind: obs.EvEnergySample, Dev: "storage", Size: 900_000})

	shutdown, addr, err := startServer("127.0.0.1:0", obs.NewRegistry(), plot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	resp, err := http.Get("http://" + addr + "/plot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/plot: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("/plot content-type %q, want image/svg+xml", ct)
	}
	doc := string(body)
	if !strings.HasPrefix(doc, "<svg") || !strings.Contains(doc, "</svg>") {
		t.Errorf("/plot body is not an SVG document:\n%.300s", doc)
	}
	for _, want := range []string{"total", "storage", "Cumulative energy"} {
		if !strings.Contains(doc, want) {
			t.Errorf("/plot missing %q", want)
		}
	}

	// The plot is live: more samples show up on the next fetch.
	plot.Emit(obs.Event{T: 3_000_000, Kind: obs.EvEnergySample, Dev: "dram", Size: 400_000})
	_, doc = getBody(t, "http://"+addr+"/plot")
	if !strings.Contains(doc, "dram") {
		t.Error("second fetch did not observe the new component")
	}
}

// Every exposed line must match the Prometheus text format grammar.
func TestServeMetricsGrammar(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("a.b").Add(1)
	reg.Gauge("g").Set(-0.25)
	h := reg.Histogram("lat")
	h.Observe(3 * units.Millisecond)
	h.Observe(2e10) // past the layout's top: the +Inf bucket

	shutdown, addr, err := startServer("127.0.0.1:0", reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	_, body := getBody(t, "http://"+addr+"/metrics")
	lineRE := regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_][a-zA-Z0-9_]* .*|[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN))$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !lineRE.MatchString(line) {
			t.Errorf("bad exposition line: %q", line)
		}
	}
}

// Every figure kind is live at /plot/<kind>; bare /plot is the energy
// figure; unknown kinds 404 with a body that names the valid ones.
func TestServePlotKinds(t *testing.T) {
	live := newLiveFigures()
	live.Emit(obs.Event{T: 1_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 2_000_000})
	live.Emit(obs.Event{T: 1_500_000, Kind: obs.EvDiskSpinDown})
	live.Emit(obs.Event{T: 2_000_000, Kind: obs.EvDiskSpinUp, Dur: 500_000})
	live.Emit(obs.Event{T: 2_500_000, Kind: obs.EvCardErase, Addr: 0, Size: 1})
	live.Emit(obs.Event{T: 3_000_000, Kind: obs.EvCardClean, Dur: 1500})

	shutdown, addr, err := startServer("127.0.0.1:0", obs.NewRegistry(), live, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	base := "http://" + addr

	for _, kind := range obsreport.FigureKinds() {
		code, body := getBody(t, base+"/plot/"+kind)
		if code != http.StatusOK {
			t.Errorf("/plot/%s: %d (%s)", kind, code, body)
			continue
		}
		if !strings.Contains(body, "<svg") {
			t.Errorf("/plot/%s is not an SVG", kind)
		}
	}

	// Bare /plot and /plot/ serve the same figure as /plot/energy.
	_, canonical := getBody(t, base+"/plot/energy")
	for _, path := range []string{"/plot", "/plot/"} {
		code, body := getBody(t, base+path)
		if code != http.StatusOK || body != canonical {
			t.Errorf("%s does not alias /plot/energy (code %d)", path, code)
		}
	}

	code, body := getBody(t, base+"/plot/pie")
	if code != http.StatusNotFound {
		t.Errorf("/plot/pie: %d, want 404", code)
	}
	for _, kind := range obsreport.FigureKinds() {
		if !strings.Contains(body, kind) {
			t.Errorf("/plot/pie 404 body does not list %q: %s", kind, body)
		}
	}
}

// The index page embeds every live figure and, in service mode, the job
// table wired to the SSE streams.
func TestServeIndex(t *testing.T) {
	live := newLiveFigures()
	live.Emit(obs.Event{T: 1_000_000, Kind: obs.EvEnergySample, Dev: "total", Size: 2_000_000})

	shutdown, addr, err := startServer("127.0.0.1:0", obs.NewRegistry(), live, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	code, body := getBody(t, "http://"+addr+"/")
	if code != http.StatusOK {
		t.Fatalf("/: %d", code)
	}
	for _, kind := range obsreport.FigureKinds() {
		if !strings.Contains(body, `<img src="/plot/`+kind+`"`) {
			t.Errorf("index missing live figure img for %q", kind)
		}
	}
	// Run mode has no fleet section.
	if strings.Contains(body, "POST /jobs") {
		t.Error("index advertises the job API without a fleet service")
	}
}

// Service mode end to end through the real server: submit a grid job over
// HTTP, watch it finish, and check the dashboard reflects it.
func TestServeFleetService(t *testing.T) {
	reg := obs.NewRegistry()
	svc := fleet.NewService(reg)
	shutdown, addr, err := startServer("127.0.0.1:0", reg, nil, svc)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	base := "http://" + addr

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"name": "smoke", "synth_ops": 200, "replicas": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	var st fleet.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || st.Total != 2 {
		t.Fatalf("POST /jobs: %d, %+v", resp.StatusCode, st)
	}

	j := svc.Get(st.ID)
	select {
	case <-j.Finished():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}

	code, body := getBody(t, base+"/")
	if code != http.StatusOK {
		t.Fatalf("/: %d", code)
	}
	for _, want := range []string{
		"POST /jobs",
		`data-job="` + st.ID + `"`,
		">smoke<",
		"2/2",
		"/jobs/" + st.ID + "/plot/energy",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("service index missing %q", want)
		}
	}

	code, body = getBody(t, base+"/jobs/"+st.ID+"/plot/latency")
	if code != http.StatusOK || !strings.Contains(body, "<svg") {
		t.Errorf("job plot: %d", code)
	}

	// /metrics carries the per-job fleet counters.
	_, body = getBody(t, base+"/metrics")
	if !strings.Contains(body, "storagesim_fleet_jobs_submitted_total 1") {
		t.Errorf("/metrics missing fleet counters:\n%.500s", body)
	}
}
