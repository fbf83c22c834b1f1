// Fleet: drive the fleet simulation service as an HTTP client.
//
// This is the walkthrough from docs/SERVICE.md as a runnable program. It
// starts an in-process fleet service (the same internal/fleet service
// `storagesim -service` mounts), submits a device × utilization ×
// replica grid over POST /jobs, follows the job's SSE stream at
// /events/<id> printing progress frames as they land, and finishes with
// the fleet aggregate from GET /jobs/<id> — percentile latencies and
// energy across all runs, merged at constant memory. Point the same
// client code at a real `storagesim -service -serve ADDR` and it works
// unchanged.
//
//	go run ./examples/fleet
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"mobilestorage/internal/fleet"
	"mobilestorage/internal/obs"
)

func main() {
	// 1. An in-process service, exactly as -service mounts it. Swap the
	// httptest server for a real base URL to drive a remote instance.
	svc := fleet.NewService(obs.NewRegistry())
	mux := http.NewServeMux()
	svc.RegisterRoutes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// 2. Submit a grid: 2 devices × 3 utilizations × 5 replicas = 30 runs.
	// Replicas re-run the grid with derived workload seeds, so the fleet
	// aggregate carries real cross-run spread, not one sample repeated.
	spec := `{
		"name": "example",
		"devices": ["intel", "sdp10"],
		"utilizations": [0.5, 0.8, 0.95],
		"synth_ops": 5000,
		"replicas": 5,
		"seed": 42
	}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	var st fleet.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted %s: %d runs\n", st.ID, st.Total)

	// 3. Follow the SSE stream. Frames arrive in order: progress after
	// every merged run, then one guaranteed terminal "done" frame carrying
	// the final status.
	events, err := http.Get(ts.URL + "/events/" + st.ID)
	if err != nil {
		log.Fatal(err)
	}
	defer events.Body.Close()

	var final fleet.Status
	var event string
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "progress":
			var p struct {
				Done    int     `json:"done"`
				Total   int     `json:"total"`
				EnergyJ float64 `json:"energy_j"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				log.Fatal(err)
			}
			if p.Done%10 == 0 && p.Done > 0 {
				fmt.Printf("  %d/%d runs merged, %.0f J so far\n", p.Done, p.Total, p.EnergyJ)
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if !final.Finished {
		log.Fatal("stream ended without a done frame")
	}

	// 4. The fleet aggregate: distributions and totals across all 30 runs.
	r := final.Report
	fmt.Printf("\n%s: %d runs done, %d failed, %.1f s wall\n",
		final.State, final.Done, final.Failed, final.Runtime)
	fmt.Printf("energy  total %.0f J   per-run p50 %.0f J  p90 %.0f J\n",
		r.Energy.TotalJ, r.Energy.P50PerRunJ, r.Energy.P90PerRunJ)
	fmt.Printf("read    p50 %.2f ms  p90 %.2f ms  p99 %.2f ms  max %.2f ms\n",
		r.Read.P50Ms, r.Read.P90Ms, r.Read.P99Ms, r.Read.MaxMs)
	fmt.Printf("write   p50 %.2f ms  p90 %.2f ms  p99 %.2f ms  max %.2f ms\n",
		r.Write.P50Ms, r.Write.P90Ms, r.Write.P99Ms, r.Write.MaxMs)
	fmt.Printf("flash   %d erases, write amplification %.2f\n",
		r.Flash.Erases, r.Flash.WriteAmp)

	// The seven fleet figures are live at /jobs/<id>/plot/<kind> the whole
	// time; grab one to show they render.
	svg, err := http.Get(ts.URL + "/jobs/" + st.ID + "/plot/latency")
	if err != nil {
		log.Fatal(err)
	}
	defer svg.Body.Close()
	buf := make([]byte, 64)
	n, _ := svg.Body.Read(buf)
	fmt.Printf("figure  /jobs/%s/plot/latency → %s (%s...)\n",
		st.ID, svg.Status, strings.TrimSpace(string(buf[:n])[:20]))
}
