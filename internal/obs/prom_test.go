package obs

import (
	"regexp"
	"strings"
	"testing"

	"mobilestorage/internal/units"
)

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("disk.spin_ups").Add(3)
	reg.Counter("cache.hits").Add(41)
	reg.Gauge("energy.total_j").Set(12.5)
	h := reg.Histogram("flashcard.clean_ms")
	h.Observe(500)
	h.Observe(5 * units.Millisecond)
	h.Observe(2e10)                // 2·10^7 ms: overflow
	reg.Histogram("idle.empty_ms") // never observed

	var b strings.Builder
	if err := WritePrometheus(&b, reg, "storagesim"); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE storagesim_cache_hits_total counter\nstoragesim_cache_hits_total 41\n",
		"# TYPE storagesim_disk_spin_ups_total counter\nstoragesim_disk_spin_ups_total 3\n",
		"# TYPE storagesim_energy_total_j gauge\nstoragesim_energy_total_j 12.5\n",
		"# TYPE storagesim_flashcard_clean_ms histogram\n",
		`storagesim_flashcard_clean_ms_bucket{le="0.39810717055349754"} 0` + "\n" +
			`storagesim_flashcard_clean_ms_bucket{le="0.6309573444801937"} 1` + "\n",
		`storagesim_flashcard_clean_ms_bucket{le="3.981071705534976"} 1` + "\n" +
			`storagesim_flashcard_clean_ms_bucket{le="6.30957344480194"} 2` + "\n",
		`storagesim_flashcard_clean_ms_bucket{le="+Inf"} 3`,
		"storagesim_flashcard_clean_ms_sum 2.00000055e+07",
		"storagesim_flashcard_clean_ms_count 3",
		// Exact extremes ride along as gauges: 2·10^7 lives in the overflow
		// bucket, where le edges alone could only say "> 10^7".
		"# TYPE storagesim_flashcard_clean_ms_min gauge\nstoragesim_flashcard_clean_ms_min 0.5\n",
		"# TYPE storagesim_flashcard_clean_ms_max gauge\nstoragesim_flashcard_clean_ms_max 2e+07\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// A histogram with no samples has no meaningful extremes to expose.
	for _, reject := range []string{
		"storagesim_idle_empty_ms_min",
		"storagesim_idle_empty_ms_max",
	} {
		if strings.Contains(out, reject) {
			t.Errorf("unexpected %q in:\n%s", reject, out)
		}
	}

	// Every non-comment line must match the exposition grammar.
	lineRE := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{le="[^"]+"\})? (-?\d+(\.\d+)?([eE][-+]?\d+)?|\+Inf|-Inf|NaN)$`)
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// Deterministic across calls.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, reg, "storagesim"); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition output not deterministic")
	}

	if err := WritePrometheus(&b, nil, "x"); err != nil {
		t.Fatalf("nil registry: %v", err)
	}
}

func TestPromNameSanitize(t *testing.T) {
	cases := map[string]string{
		"disk.spin_ups": "ns_disk_spin_ups",
		"p99-latency":   "ns_p99_latency",
		"9lives":        "ns__9lives",
	}
	for in, want := range cases {
		if got := promName("ns", in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promName("", "a.b"); got != "a_b" {
		t.Errorf("no-namespace name %q", got)
	}
}
