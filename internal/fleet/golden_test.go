package fleet

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"mobilestorage/internal/obsreport"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenJob runs a disk, a flash disk and a flash card under a fault plan
// with the sampler on, so every builder a fleet run feeds sees events and
// every per-run distribution has runs in it.
const goldenJob = `{"devices": ["cu140", "sdp5", "intel"], "synth_ops": 2000, "replicas": 2, "seed": 3,
	"sample_every_s": 1, "workers": 2,
	"fault_plans": [{"write_error_rate": 0.01, "power_fail_at_us": [5000000]}]}`

// runtimeMember is the one member of a job's status that reads the wall
// clock.
var runtimeMember = regexp.MustCompile(`"runtime_s":[^,}]*`)

// TestJobGolden pins what a client reads of one finished job, byte for
// byte: GET /jobs/<id> with the runtime masked, and every
// GET /jobs/<id>/plot/<kind>.
func TestJobGolden(t *testing.T) {
	_, ts := newTestServer(t)
	st := postJob(t, ts, goldenJob)
	pollDone(t, ts, st.ID)
	files := map[string][]byte{
		"status.json": runtimeMember.ReplaceAll(httpGet(t, ts.URL+"/jobs/"+st.ID), []byte(`"runtime_s":0`)),
	}
	for _, kind := range obsreport.FigureKinds() {
		files[kind+".svg"] = httpGet(t, ts.URL+"/jobs/"+st.ID+"/plot/"+kind)
	}
	for name, got := range files {
		path := filepath.Join("testdata", "job", name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from %s (regenerate with -update and review the diff)", name, path)
		}
	}
}

func httpGet(t *testing.T, url string) []byte {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s (%s)", url, resp.Status, body)
	}
	return body
}
