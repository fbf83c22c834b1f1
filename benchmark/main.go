// Command benchmark measures the simulator's host time on one workload.
//
// Run from the repository root:
//
//	bash benchmark/run.sh --workload fig2-util-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it times passes back to back and prints the end-to-end
// metrics; with --trace 1 it prints the per-layer ledger. The last line of
// standard output is one JSON object with the metrics. See README.md.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// digests.json maps workload → seed → SHA-256 of one pass's output.
//
//go:embed digests.json
var digestsJSON []byte

// coldStarts is how many cold starts a timed run measures: its own, and
// the rest in fresh child processes, because what the program memoizes
// lives as long as its process. setup_s comes from their median.
const coldStarts = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// nproc is the host's CPU count: the fleet job's worker count, and the
// thread count the traced run times parallel passes at.
var nproc = runtime.NumCPU()

func main() {
	// Timed passes run on one thread. On a shared 2-vCPU host, two-thread
	// passes spread by 40% from run to run, because a neighbour busy on
	// either vCPU stalls the whole parallel pass; one thread spreads by 5%.
	runtime.GOMAXPROCS(1)
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long the timed passes run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the timed passes")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	record := flag.Bool("record", false, "print digests.json with one pass of every workload at -seed added")
	coldOnly := flag.Bool("cold", false, "time one cold start (set-up and first pass) and print it as JSON")
	flag.Parse()

	if *record {
		if err := recordDigests(*seed); err != nil {
			fail(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var out any
	var err error
	switch {
	case *coldOnly:
		out, err = runCold(w, *seed)
	case *traced == 1:
		out, err = runLedger(w, *seed, *spans)
	default:
		out, err = runTimed(w, *seed, *seconds)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// recordedDigest returns the digest recorded for a workload and seed, or "".
func recordedDigest(name string, seed int64) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return all[name][strconv.FormatInt(seed, 10)], nil
}

func recordDigests(seed int64) error {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if all == nil {
		all = map[string]map[string]string{}
	}
	for _, w := range workloads {
		s, err := w.setup(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		out, err := s.pass()
		s.stop()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if all[w.name] == nil {
			all[w.name] = map[string]string{}
		}
		all[w.name][strconv.FormatInt(seed, 10)] = digest(out)
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail returns the highest pass time with at least ten passes beyond it
// (the maximum when there are fewer than eleven passes) and how many passes
// lie beyond it.
func tail(xs []float64) (float64, int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], len(s) - 1 - i
}

// cold is one cold start: the workload's set-up and its first pass, timed
// together in a process that has done neither before.
type cold struct {
	Scaled float64 `json:"scaled_s"`
	Raw    float64 `json:"raw_s"`
	Digest string  `json:"digest"`
}

// coldKernels is how many reference-kernel runs precede a cold start and
// how many follow it. The cold start is scaled by their median: one kernel
// run in a fresh process varied by ±25% on a shared host.
const coldKernels = 3

// coldStart sets the workload up and runs its first pass, timed together
// and scaled to the reference speed (see refspeed.go). Whatever the
// program memoizes for later passes is filled here.
func coldStart(w workload, seed int64) (cold, *session, error) {
	var ks []float64
	kernels := func() {
		for i := 0; i < coldKernels; i++ {
			k, _ := quietKernel()
			ks = append(ks, float64(k))
		}
	}
	kernels()
	t0 := time.Now()
	s, err := w.setup(seed)
	if err != nil {
		return cold{}, nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	out, err := s.pass()
	raw := time.Since(t0).Seconds()
	if err != nil {
		s.stop()
		return cold{}, nil, fmt.Errorf("%s first pass: %w", w.name, err)
	}
	kernels()
	scale := refScale(time.Duration(median(ks)))
	return cold{Scaled: raw * scale, Raw: raw, Digest: digest(out)}, s, nil
}

// runCold is the child side of a cold start: one cold start in this fresh
// process.
func runCold(w workload, seed int64) (cold, error) {
	if err := mapRefTable(); err != nil {
		return cold{}, err
	}
	c, s, err := coldStart(w, seed)
	if err != nil {
		return cold{}, err
	}
	s.stop()
	return c, nil
}

// coldChild runs one cold start in a fresh copy of this program and waits
// for it to exit.
func coldChild(w workload, seed int64) (cold, error) {
	exe, err := os.Executable()
	if err != nil {
		return cold{}, err
	}
	cmd := exec.Command(exe, "--cold", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return cold{}, fmt.Errorf("%s cold start: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var c cold
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		return cold{}, fmt.Errorf("%s cold start: %w", w.name, err)
	}
	return c, nil
}

// runTimed starts the workload cold (set-up and first pass, whose digest is
// the reference), runs passes back to back for the given seconds, then
// measures more cold starts in child processes. Each pass follows a
// reference-kernel run that scales its time. A pass fails on an error or
// when its output digest differs from the reference; the reference itself
// must match the digest recorded for the seed, when there is one.
func runTimed(w workload, seed int64, seconds float64) (*result, error) {
	if err := mapRefTable(); err != nil {
		return nil, err
	}
	first, s, err := coldStart(w, seed)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	ref := first.Digest
	want, err := recordedDigest(w.name, seed)
	if err != nil {
		return nil, err
	}
	correct := want == "" || want == ref
	if !correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d output digest %s, recorded %s\n", w.name, seed, ref, want)
	}

	var passMs, rawMs, cpuNs, kernelMs []float64
	var alloc uint64
	var scaledS float64 // Σ scaled pass wall, seconds
	passes, failed, gcWaits := 0, 0, 0
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		k, waited := quietKernel()
		if waited {
			gcWaits++
		}
		scale := refScale(k)
		runtime.ReadMemStats(&ms0)
		c0 := cpuTime()
		t0 := time.Now()
		out, err := s.pass()
		wall := float64(time.Since(t0).Nanoseconds())
		cpu := float64((cpuTime() - c0).Nanoseconds())
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		rawMs = append(rawMs, wall/1e6)
		passMs = append(passMs, wall/1e6*scale)
		scaledS += wall / 1e9 * scale
		cpuNs = append(cpuNs, cpu*scale)
		kernelMs = append(kernelMs, float64(k.Nanoseconds())/1e6)
		passes++
		if err != nil || digest(out) != ref || !correct {
			failed++
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s pass %d: %v\n", w.name, passes, err)
			}
		}
	}
	rss := maxRSSMB()

	// The other cold starts, each in a process of its own. Their first
	// passes count as passes and must match the reference too.
	colds := []cold{first}
	for len(colds) < coldStarts {
		c, err := coldChild(w, seed)
		if err != nil {
			return nil, err
		}
		if c.Digest != ref {
			failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s cold start %d output digest %s, want %s\n", w.name, len(colds), c.Digest, ref)
		}
		colds = append(colds, c)
	}
	attempted := passes + len(colds)

	records := float64(s.records)
	p50 := median(passMs)
	var coldS, rawCold []float64
	for _, c := range colds {
		coldS = append(coldS, c.Scaled)
		rawCold = append(rawCold, c.Raw)
	}
	setup := median(coldS)
	tailMs, beyond := tail(rawMs)
	fmt.Printf("%s seed %d: %d passes of %d records; raw pass_ms p50 %.3f, tail %.3f is p%.1f (%d passes beyond it); "+
		"reference kernel p50 %.3f ms, %d of %d kernel runs waited for a GC cycle to end; "+
		"cold starts raw %s s, scaled %s s, median %.3f s over pass_ms_p50\n",
		w.name, seed, passes, s.records, median(rawMs), tailMs, 100*float64(passes-beyond)/float64(passes), beyond,
		median(kernelMs), gcWaits, passes, fmtList(rawCold), fmtList(coldS), setup-p50/1e3)
	return &result{
		Correct:   correct && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"records_per_s":          {records * float64(passes) / scaledS, "records/s"},
			"cpu_ns_per_record":      {median(cpuNs) / records, "ns"},
			"pass_ms_p50":            {p50, "ms"},
			"alloc_bytes_per_record": {float64(alloc) / (records * float64(passes)), "B"},
			"max_rss_mb":             {rss, "MB"},
			"setup_s":                {setup, "s"},
		},
	}, nil
}

func fmtList(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, strconv.FormatFloat(x, 'f', 3, 64))
	}
	return strings.Join(parts, "/")
}
