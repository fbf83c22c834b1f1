package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mobilestorage/internal/core"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/trace"
)

// ledgerRepeats is how many times the traced run times each measurement;
// it reports medians.
const ledgerRepeats = 5

// emitPairs is how many paired runs per repeat time the cost of emitting
// events.
const emitPairs = 4

// runLayers are the layers a core.Run's host time splits into, in ledger
// order. Each is timed as an isolated replay of its recorded input stream;
// core.loop is the residual.
var runLayers = []string{"core.prep", "cache", "sram", "disk", "flashdisk", "flashcard", "stats",
	"obs.emit", "obs.ndjson", "obsreport.observe"}

// span is one timed interval of the traced run: a configuration, or one
// layer replay whose parent is its configuration.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps every span in memory until the run writes them out.
type spans struct {
	t0   time.Time
	list []span
}

func (s *spans) start(parent int, name string) int {
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Start: time.Since(s.t0).Nanoseconds()})
	return len(s.list)
}

func (s *spans) end(id int) float64 {
	sp := &s.list[id-1]
	sp.End = time.Since(s.t0).Nanoseconds()
	return float64(sp.End - sp.Start)
}

// timed runs f inside one span and returns its duration in ns.
func (s *spans) timed(parent int, name string, f func()) float64 {
	id := s.start(parent, name)
	f()
	return s.end(id)
}

// checks counts the verifications of a traced run.
type checks struct{ attempted, failed int }

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "benchmark: check failed: "+format+"\n", args...)
	}
}

// layerStats accumulates one layer across a workload's configurations.
type layerStats struct {
	ns    float64
	calls int64
}

// ledger is the traced run's accumulated measurements for one workload.
type ledger struct {
	records   int64
	runNs     float64 // Σ untraced core.Run, each the median of its repeats
	tracedNs  float64 // Σ traced replays through the rebuilt stack
	layers    map[string]*layerStats
	seqRecs   float64 // records in sequential runs
	cacheHits int64
	cacheRefs int64
	// flashcard split: shares of the card's replay time spent in Idle and
	// Finish (background cleaning and idle accounting) and in Access.
	cardIdleNs, cardAccessNs      float64
	cardIdleCalls, cardOtherCalls int64
	cardHost, cardCopied          int64
	cardStalls, cardWrites        int64
	sramFlushes, sramStalled      int64
	sramWrites                    int64
	spinUps, fdiskErases          int64
	events                        int64
	// per-run outputs the workload checks reuse
	results []*core.Result
	figures []*obsreport.FigureSet
	ndjson  [][]byte
}

func (l *ledger) add(name string, ns float64, calls int64) {
	ls := l.layers[name]
	if ls == nil {
		ls = &layerStats{}
		l.layers[name] = ls
	}
	ls.ns += ns
	ls.calls += calls
}

// eventLog is a tracer that keeps every event.
type eventLog struct{ events []obs.Event }

func (e *eventLog) Emit(ev obs.Event) { e.events = append(e.events, ev) }

// countTracer counts events and does nothing else: a run with it, minus a
// nil-scope run, is the cost of emitting.
type countTracer struct{ n int64 }

func (c *countTracer) Emit(obs.Event) { c.n++ }

// figureTracer feeds a run's events to fleet-style report builders.
type figureTracer struct{ figs *obsreport.FigureSet }

func (f figureTracer) Emit(e obs.Event) { f.figs.Observe(e) }

// figuresText renders the report builders a fleet run feeds.
func figuresText(fs *obsreport.FigureSet) string {
	var b bytes.Buffer
	writeReports(&b, fs.Timeline, fs.Latency, fs.Wear, fs.Cleaning)
	return b.String()
}

// withSink attaches the pass's tracer to cfg, returning what it fills.
func withSink(cfg core.Config, sink string) (core.Config, *obsreport.FigureSet, *bytes.Buffer, *obs.NDJSONSink) {
	switch sink {
	case "figures":
		figs := obsreport.NewFigureSet()
		cfg.Scope = obs.NewScope(nil, figureTracer{figs})
		return cfg, figs, nil, nil
	case "ndjson":
		var buf bytes.Buffer
		nd := obs.NewNDJSONSink(&buf)
		cfg.Scope = obs.NewScope(nil, nd)
		return cfg, nil, &buf, nd
	}
	return cfg, nil, nil, nil
}

func sameDevice(a, b *core.Result) bool {
	return a.SpinUps == b.SpinUps && a.SpinDowns == b.SpinDowns && a.Erases == b.Erases &&
		a.MaxEraseCount == b.MaxEraseCount && a.MeanEraseCount == b.MeanEraseCount &&
		a.CopiedBlocks == b.CopiedBlocks && a.HostBlocks == b.HostBlocks && a.WriteStalls == b.WriteStalls &&
		a.CleaningTime == b.CleaningTime && a.HostTime == b.HostTime
}

// measureRun builds one configuration's ledger entry: the untraced
// core.Run time, a traced replay through the rebuilt stack that must
// reproduce core.Run's result, and isolated replays of every layer's
// recorded stream, each of which must reproduce that layer's counters.
func measureRun(sp *spans, ck *checks, l *ledger, r run, sink string, prepInside bool, clockNs float64) error {
	root := sp.start(0, "config "+r.label)
	defer sp.end(root)
	p, err := newPlan(r.cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", r.label, err)
	}
	want, err := core.Run(r.cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", r.label, err)
	}
	var got *captured
	l.tracedNs += sp.timed(root, "traced replay", func() { got, err = p.replay() })
	if err != nil {
		return fmt.Errorf("%s: traced replay: %w", r.label, err)
	}
	diff := diffResults(got.res, want)
	ck.expect(diff == nil, "%s: %v", r.label, diff)

	records := int64(len(r.cfg.Trace.Records))
	l.records += records
	l.seqRecs += p.seqShare * float64(records)
	l.cacheHits += want.CacheHits
	l.cacheRefs += want.CacheHits + want.CacheMisses

	var events []obs.Event
	if sink != "" {
		col := &eventLog{}
		cfg := r.cfg
		cfg.Scope = obs.NewScope(nil, col)
		res, err := core.Run(cfg)
		if err != nil {
			return err
		}
		ck.expect(diffResults(res, want) == nil, "%s: events changed the result", r.label)
		events = col.events
		l.events += int64(len(events))
	}

	var runNs, emitNs []float64
	layerNs := map[string][]float64{}
	for rep := 0; rep < ledgerRepeats; rep++ {
		cfg, figs, buf, nd := withSink(r.cfg, sink)
		var res *core.Result
		runNs = append(runNs, sp.timed(root, "core.Run", func() {
			res, err = core.Run(cfg)
			if err == nil && nd != nil {
				err = nd.Flush()
			}
		}))
		if err != nil {
			return err
		}
		if rep == 0 {
			l.results = append(l.results, res)
			if figs != nil {
				l.figures = append(l.figures, figs)
			}
			if buf != nil {
				l.ndjson = append(l.ndjson, buf.Bytes())
			}
		}

		if sink != "" {
			// Paired runs, alternating which goes first; the median of the
			// differences is the emission cost. It is about 1% of a run, so
			// it takes more pairs than the other layers take repeats.
			for pair := 0; pair < emitPairs; pair++ {
				ct := &countTracer{}
				cfg := r.cfg
				cfg.Scope = obs.NewScope(nil, ct)
				var nilNs, countNs float64
				for k := 0; k < 2; k++ {
					if (pair+k)%2 == 0 {
						nilNs = sp.timed(root, "core.Run nil scope", func() { _, err = core.Run(r.cfg) })
					} else {
						countNs = sp.timed(root, "core.Run counting tracer", func() { _, err = core.Run(cfg) })
					}
					if err != nil {
						return err
					}
				}
				emitNs = append(emitNs, countNs-nilNs)
				ck.expect(ct.n == int64(len(events)), "%s: %d events counted, %d captured", r.label, ct.n, len(events))
			}
		}

		if prepInside {
			var prep *core.TracePrep
			layerNs["core.prep"] = append(layerNs["core.prep"], sp.timed(root, "core.prep", func() { prep = core.PrepareTrace(r.cfg.Trace) }))
			ck.expect(prep.Err() == nil && prep.Footprint() == p.footprint, "%s: prep footprint %v, layout %v", r.label, prep.Footprint(), p.footprint)
		}

		if r.cfg.DRAMBytes > 0 {
			bad := 0
			var hits, misses int64
			var energyJ float64
			layerNs["cache"] = append(layerNs["cache"], sp.timed(root, "cache", func() {
				c, cerr := p.newCache()
				if cerr != nil {
					err = cerr
					return
				}
				bad = replayCache(c, got.cacheOps)
				hits, misses, energyJ = c.Hits(), c.Misses(), c.Meter().TotalJ()
			}))
			if err != nil {
				return err
			}
			ck.expect(bad < 0 && hits == want.CacheHits && misses == want.CacheMisses && energyJ == want.EnergyByComponent["dram"],
				"%s: cache replay diverged (op %d, hits %d/%d)", r.label, bad, hits, want.CacheHits)
		}

		devRes := &core.Result{}
		bad := 0
		var devJ float64
		layerNs[p.device] = append(layerNs[p.device], sp.timed(root, p.device, func() {
			dev, derr := p.newDevice()
			if derr != nil {
				err = derr
				return
			}
			bad = replayCalls(dev, got.dev)
			deviceCounters(dev, devRes)
			devJ = dev.Meter().TotalJ()
		}))
		if err != nil {
			return err
		}
		ck.expect(bad < 0 && sameDevice(devRes, want) && devJ == want.EnergyByComponent["storage"],
			"%s: %s replay diverged (call %d)", r.label, p.device, bad)

		if r.cfg.SRAMBytes > 0 {
			// The buffer replays over a fresh device; its self time is that
			// replay minus the device's own.
			innerRes := &core.Result{}
			var flushes, stalled int64
			var sramJ float64
			ns := sp.timed(root, "sram+"+p.device, func() {
				dev, derr := p.newDevice()
				if derr != nil {
					err = derr
					return
				}
				b, berr := p.newSRAM(dev)
				if berr != nil {
					err = berr
					return
				}
				bad = replayCalls(b, got.top)
				deviceCounters(dev, innerRes)
				flushes, stalled, sramJ = b.Flushes(), b.StalledWrites(), b.Meter().TotalJ()
			})
			if err != nil {
				return err
			}
			layerNs["sram"] = append(layerNs["sram"], ns-layerNs[p.device][rep])
			ck.expect(bad < 0 && flushes == want.SRAMFlushes && stalled == want.SRAMStalledWrites &&
				sramJ == want.EnergyByComponent["sram"] && sameDevice(innerRes, want),
				"%s: sram replay diverged (call %d)", r.label, bad)
		}

		st := newRespStats()
		layerNs["stats"] = append(layerNs["stats"], sp.timed(root, "stats", func() {
			for _, s := range got.samples {
				st.add(s)
			}
		}))
		ck.expect(st.equal(want), "%s: stats replay diverged", r.label)

		switch sink {
		case "ndjson":
			var out bytes.Buffer
			layerNs["obs.ndjson"] = append(layerNs["obs.ndjson"], sp.timed(root, "obs.ndjson", func() {
				nd := obs.NewNDJSONSink(&out)
				for _, e := range events {
					nd.Emit(e)
				}
				err = nd.Flush()
			}))
			ck.expect(err == nil && bytes.Equal(out.Bytes(), buf.Bytes()), "%s: NDJSON replay differs from the run's stream", r.label)
		case "figures":
			fs := obsreport.NewFigureSet()
			layerNs["obsreport.observe"] = append(layerNs["obsreport.observe"], sp.timed(root, "obsreport.observe", func() {
				for _, e := range events {
					fs.Observe(e)
				}
			}))
			ck.expect(figuresText(fs) == figuresText(figs), "%s: report builders replay differs", r.label)
		}
	}
	run := median(runNs)
	l.runNs += run
	if sink != "" {
		l.add("obs.emit", median(emitNs), int64(len(events)))
	}
	calls := map[string]int64{
		"core.prep": records, "cache": int64(len(got.cacheOps)), "sram": int64(len(got.top)),
		p.device: int64(len(got.dev)), "stats": int64(len(got.samples)),
		"obs.ndjson": int64(len(events)), "obsreport.observe": int64(len(events)),
	}
	for name, xs := range layerNs {
		l.add(name, median(xs), calls[name])
	}
	l.tally(p, got, want, median(layerNs[p.device]), clockNs)
	return nil
}

// tally adds a configuration's counters and, for a card, splits its replay
// time between Idle (background cleaning, idle accounting) and Access. The
// split replays the stream once more timing every call, subtracts one
// clock pair per call, and applies the resulting shares to the clean
// replay's time, so per-call clock cost only skews the split, not the total.
func (l *ledger) tally(p *plan, got *captured, want *core.Result, devNs, clockNs float64) {
	for _, c := range got.top {
		if c.kind == callAccess && c.req.Op == trace.Write {
			l.sramWrites++
		}
	}
	l.sramFlushes += want.SRAMFlushes
	l.sramStalled += want.SRAMStalledWrites
	l.spinUps += want.SpinUps
	if p.device == "flashdisk" {
		l.fdiskErases += want.Erases
	}
	if p.device != "flashcard" {
		return
	}
	l.cardHost += want.HostBlocks
	l.cardCopied += want.CopiedBlocks
	l.cardStalls += want.WriteStalls
	dev, err := p.newDevice()
	if err != nil {
		return
	}
	var idle, other float64
	var nIdle, nOther int64
	for i := range got.dev {
		c := got.dev[i : i+1]
		t0 := time.Now()
		replayCalls(dev, c)
		dt := float64(time.Since(t0).Nanoseconds()) - clockNs
		if dt < 0 {
			dt = 0
		}
		if c[0].kind == callIdle || c[0].kind == callFinish {
			idle += dt
			nIdle++
		} else {
			other += dt
			nOther++
			if c[0].req.Op == trace.Write {
				l.cardWrites++
			}
		}
	}
	if idle+other > 0 {
		l.cardIdleNs += devNs * idle / (idle + other)
		l.cardAccessNs += devNs * other / (idle + other)
	}
	l.cardIdleCalls += nIdle
	l.cardOtherCalls += nOther
}

// clockPairNs measures one time.Now/time.Since pair, median of batches.
func clockPairNs() float64 {
	var xs []float64
	for b := 0; b < 7; b++ {
		const n = 200000
		t0 := time.Now()
		var sink time.Duration
		for i := 0; i < n; i++ {
			s := time.Now()
			sink += time.Since(s)
		}
		_ = sink
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(xs)
}

// runLedger is the traced run: it sets the workload up once, times
// untraced passes for the wall-clock reference, then measures every
// configuration of a pass layer by layer and the work a pass does outside
// core.Run, and prints the ledger.
func runLedger(w workload, seed int64, spanDir string) (*result, error) {
	sp := &spans{t0: time.Now()}
	ck := &checks{}
	clockNs := clockPairNs()
	s, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer s.stop()

	// Untraced passes at nproc threads, the parallelism the experiments'
	// worker pool and the fleet's workers are built for; the first pass warms
	// the experiments' memos. Everything after runs on one thread.
	runtime.GOMAXPROCS(nproc)
	defer runtime.GOMAXPROCS(1)
	var passNs []float64
	var lastOut string
	for i := 0; i <= ledgerRepeats; i++ {
		var out string
		ns := sp.timed(0, "pass", func() { out, err = s.pass() })
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", w.name, err)
		}
		if i > 0 {
			passNs = append(passNs, ns)
			ck.expect(out == lastOut, "%s: pass output changed between passes", w.name)
		}
		lastOut = out
	}
	want, err := recordedDigest(w.name, seed)
	if err != nil {
		return nil, err
	}
	ck.expect(want == "" || want == digest(lastOut), "%s: output digest differs from the one recorded for seed %d", w.name, seed)
	passWall := median(passNs)
	runtime.GOMAXPROCS(1)

	tw, err := s.traced()
	ck.expect(err == nil, "%s: configurations do not reproduce the workload: %v", w.name, err)
	if err != nil {
		return nil, err
	}

	// Trace generation and the preparation a pass does outside core.Run.
	var traceRecs int64
	for _, t := range tw.traces {
		traceRecs += int64(len(t.Records))
	}
	var genNs, prepNs []float64
	for rep := 0; rep < ledgerRepeats; rep++ {
		genNs = append(genNs, sp.timed(0, "workload.gen", func() { err = tw.gen() }))
		if err != nil {
			return nil, err
		}
		prepNs = append(prepNs, sp.timed(0, "core.prep", func() {
			for _, t := range tw.traces {
				core.PrepareTrace(t)
			}
		}))
	}
	gen, prep := median(genNs), median(prepNs)

	l := &ledger{layers: map[string]*layerStats{}}
	for _, r := range tw.runs {
		if err := measureRun(sp, ck, l, r, tw.sink, tw.prepInside, clockNs); err != nil {
			return nil, err
		}
	}
	ck.expect(l.records == s.records, "%s: the rebuilt runs replay %d records, a pass %d", w.name, l.records, s.records)

	metrics := map[string]metric{}
	set := func(name string, v float64, unit string) { metrics[name] = metric{v, unit} }
	setLayerMetrics(l, tw, gen, prep, traceRecs, set)
	if tw.parallel {
		set("experiments.parallel_speedup", l.runNs/passWall, "ratio")
	}
	// Work a pass does outside core.Run, which only some workloads have.
	var outsideNs float64
	if tw.outside != nil {
		o := &outsideCtx{sp: sp, ck: ck, l: l, passOut: lastOut, passWall: passWall, genNs: gen, prepNs: prep, set: set}
		if outsideNs, err = tw.outside(o); err != nil {
			return nil, err
		}
	}

	printLedger(w.name, seed, l, tw, clockNs, passWall, gen, prep, traceRecs, outsideNs)
	if err := writeSpans(spanDir, w.name, seed, sp.list); err != nil {
		return nil, err
	}
	return &result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: metrics}, nil
}

// setLayerMetrics sets every per-layer metric from the ledger. A metric is
// 0 where its layer does no work; a workload's outside hook and the
// parallel speed-up overwrite theirs afterwards.
func setLayerMetrics(l *ledger, tw *tracedWork, gen, prep float64, traceRecs int64, set func(string, float64, string)) {
	per := func(ns float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return ns / float64(n)
	}
	layer := func(name string) (float64, int64) {
		if ls := l.layers[name]; ls != nil {
			return ls.ns, ls.calls
		}
		return 0, 0
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set("workload.gen_ms", gen/1e6, "ms")
	prepPerRecord := prep / float64(traceRecs)
	if tw.prepInside {
		ns, calls := layer("core.prep")
		prepPerRecord = per(ns, calls)
	}
	set("core.prep_ns_per_record", prepPerRecord, "ns/record")
	set("core.run_ns_per_record", l.runNs/float64(l.records), "ns/record")
	set("core.loop_ns_per_record", residual(l)/float64(l.records), "ns/record")
	set("core.seq_run_share", l.seqRecs/float64(l.records), "ratio")
	ns, calls := layer("cache")
	set("cache.calls_per_record", float64(calls)/float64(l.records), "calls/record")
	set("cache.ns_per_call", per(ns, calls), "ns/call")
	set("cache.hit_ratio", ratio(l.cacheHits, l.cacheRefs), "ratio")
	ns, calls = layer("sram")
	set("sram.ns_per_call", per(ns, calls), "ns/call")
	set("sram.flushes", float64(l.sramFlushes), "count")
	set("sram.stalled_write_ratio", ratio(l.sramStalled, l.sramWrites), "ratio")
	ns, calls = layer("disk")
	set("disk.ns_per_call", per(ns, calls), "ns/call")
	set("disk.spinups", float64(l.spinUps), "count")
	ns, calls = layer("flashdisk")
	set("flashdisk.ns_per_call", per(ns, calls), "ns/call")
	set("flashdisk.erases", float64(l.fdiskErases), "count")
	set("flashcard.access_ns_per_call", per(l.cardAccessNs, l.cardOtherCalls), "ns/call")
	set("flashcard.idle_ns_per_call", per(l.cardIdleNs, l.cardIdleCalls), "ns/call")
	set("flashcard.useful_write_ratio", ratio(l.cardHost, l.cardHost+l.cardCopied), "ratio")
	set("flashcard.stall_ratio", ratio(l.cardStalls, l.cardWrites), "ratio")
	ns, calls = layer("stats")
	set("stats.ns_per_sample", per(ns, calls), "ns/sample")
	set("obs.events_per_record", float64(l.events)/float64(l.records), "events/record")
	ns, calls = layer("obs.emit")
	set("obs.emit_ns_per_event", per(ns, calls), "ns/event")
	ns, calls = layer("obs.ndjson")
	set("obs.ndjson_ns_per_event", per(ns, calls), "ns/event")
	set("obsreport.decode_mb_per_s", 0, "MB/s")
	ns, calls = layer("obsreport.observe")
	set("obsreport.observe_ns_per_event", per(ns, calls), "ns/event")
	set("fleet.aggregate_us_per_run", 0, "us/run")
	set("fleet.worker_busy_ratio", 0, "ratio")
	set("experiments.parallel_speedup", 0, "ratio")
}

// reporterFunc adapts a function to obsreport.Reporter.
type reporterFunc func(obs.Event)

func (f reporterFunc) Observe(e obs.Event) { f(e) }

// residual is the part of core.Run the isolated layers do not explain: the
// replay loop itself plus the layers' interference with each other.
func residual(l *ledger) float64 {
	r := l.runNs
	for _, name := range runLayers {
		if ls := l.layers[name]; ls != nil {
			r -= ls.ns
		}
	}
	return r
}

func printLedger(name string, seed int64, l *ledger, tw *tracedWork, clockNs, passWall, gen, prep float64,
	traceRecs int64, outsideNs float64) {
	recs := float64(l.records)
	fmt.Printf("ledger %s seed %d: %d runs, %d records replayed; clock pair %.1f ns\n", name, seed, len(tw.runs), l.records, clockNs)
	fmt.Printf("core.Run host time = layers + residual (medians of %d isolated replays each)\n", ledgerRepeats)
	fmt.Printf("layers replay the per-record path; core.Run sends runs of records through the extent path, so the\n"+
		"residual also holds that difference, bounded by the %.2f%% of records in sequential runs\n", 100*l.seqRecs/recs)
	fmt.Printf("  %-22s %12s %10s %10s %8s\n", "layer", "calls", "ns/call", "ns/record", "share")
	for _, layer := range runLayers {
		ls := l.layers[layer]
		if ls == nil {
			continue
		}
		per := 0.0
		if ls.calls > 0 {
			per = ls.ns / float64(ls.calls)
		}
		fmt.Printf("  %-22s %12d %10.2f %10.2f %7.1f%%\n", layer, ls.calls, per, ls.ns/recs, 100*ls.ns/l.runNs)
	}
	res := residual(l)
	fmt.Printf("  %-22s %12s %10s %10.2f %7.1f%%\n", "core.loop (residual)", "", "", res/recs, 100*res/l.runNs)
	fmt.Printf("  %-22s %12s %10s %10.2f %7.1f%%  (%.1f ms)\n", "untraced core.Run", "", "", l.runNs/recs, 100.0, l.runNs/1e6)
	fmt.Printf("outside core.Run: workload.gen %.1f ms (%s); core.prep %.2f ns/trace record (%s)\n",
		gen/1e6, tw.genAt, prep/float64(traceRecs), tw.prepAt)
	if outsideNs > 0 {
		fmt.Printf("  outside core.Run in a pass: %.1f ms\n", outsideNs/1e6)
	}
	fmt.Printf("pass wall p50 at %d threads %.1f ms; Σ core.Run alone on one thread %.1f ms\n", nproc, passWall/1e6, l.runNs/1e6)
	fmt.Printf("tracing overhead: traced replay %.1f ms vs untraced core.Run %.1f ms (%+.1f ms); clock pair %.1f ns per timed call\n",
		l.tracedNs/1e6, l.runNs/1e6, (l.tracedNs-l.runNs)/1e6, clockNs)
	if tw.sink != "" {
		fmt.Printf("events: %d (%.3f per record)\n", l.events, float64(l.events)/recs)
	}
	var layerList []string
	for _, layer := range runLayers {
		if l.layers[layer] != nil {
			layerList = append(layerList, layer)
		}
	}
	fmt.Printf("layers measured: %s\n", strings.Join(layerList, ", "))
}

func writeSpans(dir, name string, seed int64, list []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	b, err := json.Marshal(list)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(list), path)
	return nil
}
