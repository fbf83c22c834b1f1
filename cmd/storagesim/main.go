// Command storagesim runs one trace-driven storage simulation and prints
// the paper-style result: energy in joules plus read/write response-time
// statistics.
//
// Examples:
//
//	storagesim -trace mac -device cu140
//	storagesim -trace dos -device intel -utilization 0.95
//	storagesim -trace hp -device sdp5a -dram 0
//	storagesim -tracefile mytrace.txt -device kh -sram 32768
//	storagesim -trace synth -array mirror:2xflashcard -member-faults members.json
//	storagesim -trace index-btree -mix read-heavy -device intel
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"mobilestorage/internal/array"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/index"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "storagesim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		traceName = flag.String("trace", "mac", "built-in workload: mac, dos, hp, synth, index-btree, index-lsm")
		traceFile = flag.String("tracefile", "", "trace file to replay (overrides -trace)")
		seed      = flag.Int64("seed", 1, "workload generation seed")
		devName   = flag.String("device", "cu140", "device: cu140, kh, sdp10, sdp5, sdp5a (asynchronous erasure), intel, intel2+")
		source    = flag.String("source", "", "parameter source: measured or datasheet (default: best available)")
		dramKB    = flag.Int64("dram", -1, "DRAM cache size in KB (default: 2048, 0 for hp)")
		sramKB    = flag.Int64("sram", -1, "SRAM write buffer in KB (default: 32 for disks, 0 for flash)")
		spinDown  = flag.Float64("spindown", fleet.DefaultSpinDown.Seconds(), "disk spin-down threshold in seconds (0 = never)")
		util      = flag.Float64("utilization", 0.8, "flash storage utilization")
		capMB     = flag.Int64("capacity", 0, "explicit flash capacity in MB (overrides utilization)")
		storedMB  = flag.Int64("stored", 0, "live data preallocated in flash, MB (default: trace footprint)")
		policy    = flag.String("cleaning", "greedy", "flash-card cleaning policy: greedy, cost-benefit, fifo")
		onDemand  = flag.Bool("ondemand", false, "clean flash card only on demand")
		writeBack = flag.Bool("writeback", false, "use a write-back DRAM cache (paper default is write-through)")
		verbose   = flag.Bool("v", false, "print component energy breakdown and device counters")
		opLog     = flag.String("oplog", "", "write a per-operation CSV log to this file")
		events    = flag.String("events", "", "write structured simulator events (NDJSON) to this file")
		metrics   = flag.Bool("metrics", false, "print the observability counter registry after the run")
		sample    = flag.Float64("sample", 0, "snapshot metrics every N simulated seconds (0 = off)")
		faults    = flag.String("faults", "", "fault-injection plan (JSON file, see docs/FAULTS.md)")
		faultSeed = flag.Int64("fault-seed", 1, "fault-injection RNG seed")
		arraySpec = flag.String("array", "", "replace the device with an array, e.g. mirror:2xflashcard or stripe:3xflashcard (see docs/ARRAYS.md; -device is ignored)")
		memFaults = flag.String("member-faults", "", "per-member fault plans for -array (JSON file keyed m0, m1, ... or *)")
		mixName   = flag.String("mix", "", "op mix for index-* traces: default or read-heavy")
		timeline  = flag.String("timeline", "", "write the sampled metric timeline as CSV to this file (requires -sample)")
		serve     = flag.String("serve", "", "serve /metrics, /healthz, /plot/<report>, and /debug/pprof on this address during the run")
		service   = flag.Bool("service", false, "run as a long-lived fleet simulation service on the -serve address (POST /jobs, SSE /events/<id>; SIGINT/SIGTERM drains and exits 130)")
		drainS    = flag.Float64("drain", 30, "service mode: seconds to wait for in-flight jobs on shutdown before cancelling them")
	)
	flag.Parse()

	if *service {
		if *serve == "" {
			return errors.New("-service requires -serve ADDR")
		}
		return runService(*serve, *drainS)
	}

	capacity, err := megabytes("capacity", *capMB)
	if err != nil {
		return err
	}
	stored, err := megabytes("stored", *storedMB)
	if err != nil {
		return err
	}

	t, indexStats, err := buildTrace(*traceFile, *traceName, *seed, *mixName)
	if err != nil {
		return err
	}

	cfg := core.Config{
		Trace:            t,
		WriteBack:        *writeBack,
		SpinDown:         units.FromSeconds(*spinDown),
		CleaningPolicy:   *policy,
		OnDemandCleaning: *onDemand,
		FlashUtilization: *util,
		FlashCapacity:    capacity,
		StoredData:       stored,
	}
	if *arraySpec != "" {
		spec, err := array.ParseSpec(*arraySpec)
		if err != nil {
			return err
		}
		cfg.Array = spec
		// Array members use fixed measured parameters: the Intel Series 2
		// card for "flashcard" members and the CU140 for "disk" members.
		cfg.FlashCardParams = device.IntelSeries2Measured()
		cfg.Disk = device.CU140Measured()
	} else if err := fleet.SelectDevice(&cfg, *devName, *source); err != nil {
		return err
	}
	if *memFaults != "" {
		if *arraySpec == "" {
			return errors.New("-member-faults requires -array")
		}
		data, err := os.ReadFile(*memFaults)
		if err != nil {
			return err
		}
		set, err := fault.ParsePlanSet(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *memFaults, err)
		}
		cfg.MemberFaults = set
		cfg.FaultSeed = *faultSeed
	}
	if *faults != "" {
		data, err := os.ReadFile(*faults)
		if err != nil {
			return err
		}
		plan, err := fault.ParsePlan(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *faults, err)
		}
		cfg.Faults = plan
		cfg.FaultSeed = *faultSeed
	}

	fleet.SizeBuffers(&cfg, *dramKB, *sramKB)

	if *timeline != "" && *sample <= 0 {
		return errors.New("-timeline requires -sample")
	}
	cfg.SampleEvery = units.FromSeconds(*sample)

	// Output files are closed through deferred closers so a failure partway
	// through the run still flushes what was written and reports every
	// close error, not just the first exit path's. The same closer list
	// backs the SIGINT handler, so an interrupted run flushes its -events
	// and -oplog sinks instead of truncating them; the mutex and the done
	// flag keep the two exit paths from double-closing.
	var (
		closerMu sync.Mutex
		closers  []func() error
		closed   bool
	)
	addCloser := func(f func() error) {
		closerMu.Lock()
		closers = append(closers, f)
		closerMu.Unlock()
	}
	runClosers := func() error {
		closerMu.Lock()
		defer closerMu.Unlock()
		if closed {
			return nil
		}
		closed = true
		var err error
		for i := len(closers) - 1; i >= 0; i-- {
			err = errors.Join(err, closers[i]())
		}
		return err
	}
	defer func() { err = errors.Join(err, runClosers()) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "storagesim: interrupted; flushing output sinks")
		if cerr := runClosers(); cerr != nil {
			fmt.Fprintln(os.Stderr, "storagesim:", cerr)
		}
		os.Exit(130)
	}()

	if *opLog != "" {
		f, err := os.Create(*opLog)
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		addCloser(func() error {
			w.Flush()
			return errors.Join(w.Error(), f.Close())
		})
		if err := w.Write([]string{"index", "arrival_us", "response_us", "op", "cache_hit", "size_bytes"}); err != nil {
			return err
		}
		cfg.Observer = func(o core.OpObservation) {
			w.Write([]string{
				strconv.Itoa(o.Index),
				strconv.FormatInt(int64(o.Arrival), 10),
				strconv.FormatInt(int64(o.Response), 10),
				o.Op.String(),
				strconv.FormatBool(o.CacheHit),
				strconv.FormatInt(int64(o.Size), 10),
			})
		}
	}

	// The sampler and the /metrics endpoint both need a live registry.
	var reg *obs.Registry
	if *metrics || *sample > 0 || *serve != "" {
		reg = obs.NewRegistry()
	}
	var tr obs.Tracer
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return err
		}
		sink := obs.NewNDJSONSink(f)
		addCloser(func() error {
			return errors.Join(sink.Flush(), f.Close())
		})
		tr = sink
	}
	var live *liveFigures
	if *serve != "" {
		live = newLiveFigures()
		tr = obs.Tee(tr, live)
	}
	cfg.Scope = obs.NewScope(reg, tr)
	if indexStats != nil {
		// Summarize the engine-level write amplification into the event
		// stream so obsreport's cleaning report can show the index.writeamp
		// column next to the cleaner's own amplification.
		cfg.Scope.Emit(obs.Event{
			Kind: obs.EvIndexWriteAmp,
			Dev:  indexStats.Engine,
			Addr: int64(indexStats.LogicalBytes),
			Size: int64(indexStats.WrittenBytes),
		})
	}

	if *serve != "" {
		shutdown, addr, err := startServer(*serve, reg, live, nil)
		if err != nil {
			return err
		}
		addCloser(shutdown)
		fmt.Fprintf(os.Stderr, "storagesim: serving metrics on http://%s/metrics and live figures on http://%s/plot/<report>\n", addr, addr)
	}

	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	if *timeline != "" {
		f, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		addCloser(f.Close)
		if err := obsreport.WriteTimelineCSV(f, res.Timeline); err != nil {
			return err
		}
	}
	printResult(os.Stdout, res, *verbose)
	if reg != nil {
		fmt.Print(reg.String())
	}
	return nil
}

// megabytes converts the MB value of flag -name to bytes. A negative value,
// or one whose byte count overflows, is an error; core bounds the rest
// (core.MaxCapacity).
func megabytes(name string, mb int64) (units.Bytes, error) {
	if limit := int64(math.MaxInt64 / units.MB); mb < 0 || mb > limit {
		return 0, fmt.Errorf("-%s %d MB out of range [0, %d]", name, mb, limit)
	}
	return units.Bytes(mb) * units.MB, nil
}

// buildTrace resolves the -tracefile/-trace flags to a replayable trace.
// The index-btree and index-lsm names generate a database-index workload —
// a B+tree or LSM engine run converted to a block trace through its pager —
// and also return the engine's stats so the run can emit the index-level
// write amplification into the event stream.
func buildTrace(traceFile, traceName string, seed int64, mixName string) (*trace.Trace, *index.Stats, error) {
	if traceFile != "" {
		t, err := trace.ReadFile(traceFile)
		return t, nil, err
	}
	if strings.HasPrefix(traceName, "index-") {
		kind := index.EngineKind(strings.TrimPrefix(traceName, "index-"))
		cfg, err := index.BenchTraceConfigMix(kind, seed, mixName)
		if err != nil {
			return nil, nil, err
		}
		t, st, err := index.GenerateTrace(cfg)
		if err != nil {
			return nil, nil, err
		}
		return t, &st, nil
	}
	if mixName != "" && mixName != "default" {
		return nil, nil, fmt.Errorf("-mix %s only applies to index-* traces", mixName)
	}
	t, err := workload.GenerateByName(traceName, seed)
	return t, nil, err
}

func printResult(w io.Writer, res *core.Result, verbose bool) {
	fmt.Fprintf(w, "trace    %s\n", res.TraceName)
	fmt.Fprintf(w, "device   %s\n", res.Device)
	fmt.Fprintf(w, "energy   %.0f J\n", res.EnergyJ)
	fmt.Fprintf(w, "read     mean %.2f ms, max %.2f ms, σ %.2f ms (%d ops)\n",
		res.Read.Mean(), res.Read.Max(), res.Read.StdDev(), res.Read.N())
	fmt.Fprintf(w, "write    mean %.2f ms, max %.2f ms, σ %.2f ms (%d ops)\n",
		res.Write.Mean(), res.Write.Max(), res.Write.StdDev(), res.Write.N())
	if f := res.Faults; f != nil {
		fmt.Fprintf(w, "faults   %d injected (%d read / %d write / %d erase), %d retries, %d exhausted, %.1f ms backoff\n",
			f.ReadFaults+f.WriteFaults+f.EraseFaults, f.ReadFaults, f.WriteFaults, f.EraseFaults,
			f.Retries, f.Exhausted, float64(f.BackoffTime)/1000)
		if f.Remaps+f.SparesExhausted > 0 {
			fmt.Fprintf(w, "badblock %d remapped to spares, %d beyond spare capacity\n", f.Remaps, f.SparesExhausted)
		}
		if f.Reclaims > 0 {
			fmt.Fprintf(w, "reclaim  %d retired units pressed back into service under capacity pressure\n", f.Reclaims)
		}
		if f.PowerFailures > 0 {
			fmt.Fprintf(w, "powerfail %d failures, %d buffered blocks replayed, %d acknowledged writes lost\n",
				f.PowerFailures, f.ReplayedBlocks, f.LostWrites)
		}
		if f.DeviceDeaths > 0 {
			fmt.Fprintf(w, "death    %d device deaths, %d mirror rebuilds (%.1f ms rebuilding)\n",
				f.DeviceDeaths, f.Rebuilds, float64(f.RebuildTime)/1000)
		}
		if f.LatentSeeded+f.LatentFaults > 0 {
			fmt.Fprintf(w, "latent   %d blocks poisoned at write, %d surfaced and scrubbed on read\n",
				f.LatentSeeded, f.LatentFaults)
		}
		if f.BacklogCarried > 0 {
			fmt.Fprintf(w, "backlog  %d cleaning jobs carried across power failures, %.1f ms drained at recovery\n",
				f.BacklogCarried, float64(f.BacklogTime)/1000)
		}
		for _, v := range f.Violations {
			fmt.Fprintf(w, "VIOLATION %s\n", v)
		}
	}
	if !verbose {
		return
	}
	fmt.Fprintf(w, "read  p50/p95/p99  ≤ %.2f / %.2f / %.2f ms\n",
		res.ReadP(0.50), res.ReadP(0.95), res.ReadP(0.99))
	fmt.Fprintf(w, "write p50/p95/p99  ≤ %.2f / %.2f / %.2f ms\n",
		res.WriteP(0.50), res.WriteP(0.95), res.WriteP(0.99))
	keys := make([]string, 0, len(res.EnergyByComponent))
	for k := range res.EnergyByComponent {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "energy.%-8s %.1f J\n", k, res.EnergyByComponent[k])
	}
	if res.CacheHits+res.CacheMisses > 0 {
		fmt.Fprintf(w, "cache    %.1f%% hit (%d/%d)\n",
			res.HitRate()*100, res.CacheHits, res.CacheHits+res.CacheMisses)
	}
	if res.SpinUps > 0 {
		fmt.Fprintf(w, "spinups  %d\n", res.SpinUps)
	}
	if res.Erases > 0 {
		fmt.Fprintf(w, "erases   %d (max/unit %d, mean/unit %.2f)\n",
			res.Erases, res.MaxEraseCount, res.MeanEraseCount)
		fmt.Fprintf(w, "cleaner  copied %d blocks for %d host blocks (amplification %.2f), %d stalled writes\n",
			res.CopiedBlocks, res.HostBlocks, res.WriteAmplification(), res.WriteStalls)
	}
}
