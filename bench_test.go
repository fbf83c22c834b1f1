// Package mobilestorage's benchmark harness regenerates every table and
// figure of the paper under `go test -bench`. One benchmark per artifact;
// headline quantities are attached as custom metrics so `-benchmem` runs
// double as a quick reproduction report:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable4 -benchtime=1x
//
// Each benchmark runs the corresponding experiment end to end (workload
// generation + simulation), so ns/op measures the cost of a full
// reproduction of that artifact.
package mobilestorage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"mobilestorage/internal/array"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/experiments"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/index"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

const seed = experiments.DefaultSeed

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Device == "intel" && r.Operation == "write" {
					b.ReportMetric(r.Compressed4K, "intel-wr-4K-KB/s")
					b.ReportMetric(r.Compressed1M, "intel-wr-1M-KB/s")
				}
			}
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2()) == 0 {
			b.Fatal("empty catalog")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Name == "mac" {
					b.ReportMetric(r.DistinctKBytes, "mac-distinct-KB")
				}
			}
		}
	}
}

func benchTable4(b *testing.B, traceName string) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(traceName, seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				switch {
				case r.Device.Name == "cu140" && r.Device.Source == "datasheet":
					b.ReportMetric(r.EnergyJ, "disk-J")
				case r.Device.Name == "intel" && r.Device.Source == "datasheet":
					b.ReportMetric(r.EnergyJ, "flashcard-J")
				}
			}
		}
	}
}

func BenchmarkTable4Mac(b *testing.B) { benchTable4(b, "mac") }
func BenchmarkTable4Dos(b *testing.B) { benchTable4(b, "dos") }
func BenchmarkTable4HP(b *testing.B)  { benchTable4(b, "hp") }

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				if s.Label == "intel compressed" {
					b.ReportMetric(s.Points[len(s.Points)-1].LatencyMs, "intel-final-lat-ms")
				}
			}
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig2(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var lo, hi float64
			for _, p := range points {
				if p.Trace == "mac" && p.Utilization == 0.40 {
					lo = p.EnergyJ
				}
				if p.Trace == "mac" && p.Utilization == 0.95 {
					hi = p.EnergyJ
				}
			}
			if lo > 0 {
				b.ReportMetric(hi/lo, "mac-energy-95/40")
			}
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig3(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(series) == 3 {
			last := series[2].Points
			b.ReportMetric(last[len(last)-1].ThroughputKBs, "9.5MB-live-KB/s")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig4(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var e34, e35 float64
			for _, p := range points {
				if p.Device == "intel" && p.DRAMKB == 0 {
					switch p.FlashMB {
					case 34:
						e34 = p.EnergyJ
					case 35:
						e35 = p.EnergyJ
					}
				}
			}
			if e34 > 0 {
				b.ReportMetric((1-e35/e34)*100, "energy-drop-34to35-%")
			}
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig5(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				if p.Trace == "mac" && p.SRAMKB == 32 && p.NormalizedWrite > 0 {
					b.ReportMetric(1/p.NormalizedWrite, "mac-32KB-write-speedup")
				}
			}
		}
	}
}

func BenchmarkAsyncCleaning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AsyncCleaning(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Trace == "mac" {
					b.ReportMetric(r.Improvement*100, "mac-write-improvement-%")
				}
			}
		}
	}
}

func BenchmarkValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Validate(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Device == "sdp10" {
					b.ReportMetric(r.WriteRatio, "sdp10-sim/testbed")
				}
			}
		}
	}
}

func BenchmarkWear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Wear(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Trace == "mac" && r.Utilization == 0.95 {
					b.ReportMetric(float64(r.MaxErase), "mac-95%-max-erase")
				}
			}
		}
	}
}

func BenchmarkBatteryLife(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BatteryLife(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Trace == "mac" && r.Alternative == "intel/datasheet" && r.StorageFraction == 0.20 {
					b.ReportMetric(r.LifeExtension*100, "headline-extension-%")
				}
			}
		}
	}
}

func BenchmarkAblateCleaner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CleanerPolicies(seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateFlashSRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FlashSRAM(seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateSeries2Plus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Series2Plus(seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateWriteBack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WriteBack(seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateSpinDown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SpinDownPolicies(seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateWearLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WearLeveling(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Trace == "mac" && r.Leveling != "off" {
					b.ReportMetric(r.Spread, "mac-leveled-max/mean")
				}
			}
		}
	}
}

func BenchmarkHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.HybridComparison(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var disk, hyb float64
			for _, r := range rows {
				if r.Trace == "mac" {
					switch {
					case r.SpinUps > 0 && disk == 0:
						disk = r.EnergyJ
					default:
						hyb = r.EnergyJ
					}
				}
			}
			if disk > 0 && hyb > 0 {
				b.ReportMetric((1-hyb/disk)*100, "mac-hybrid-saving-%")
			}
		}
	}
}

func BenchmarkEnvy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Envy(seed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Utilization == 0.80 {
					b.ReportMetric(r.CleaningFraction*100, "cleaning-at-80%-%")
				}
			}
		}
	}
}

// Observability overhead guard: the same flash-card simulation with a nil
// scope (instrumentation compiled in but disabled), with a live metrics
// registry, and with full event tracing into a ring buffer. The nil-scope
// run is the hot path every experiment takes; its ns/op must stay within
// 2% of what it was before the obs layer existed (numbers documented in
// docs/OBSERVABILITY.md). Compare with:
//
//	go test -bench='BenchmarkRun(Nil|Active|Tracing)' -count=10 | benchstat
func benchRunScope(b *testing.B, sc *obs.Scope) { benchRunFaults(b, sc, nil) }

func benchRunFaults(b *testing.B, sc *obs.Scope, plan *fault.Plan) {
	tr, err := workload.Synth(workload.SynthConfig{Seed: 7, Ops: 4000})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Kind:            core.FlashCard,
		Trace:           tr,
		FlashCardParams: device.IntelSeries2Datasheet(),
		DRAMBytes:       512 * units.KB,
		Scope:           sc,
		Faults:          plan,
		FaultSeed:       1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunNilScope(b *testing.B) { benchRunScope(b, nil) }

// BenchmarkFaultOff pins the fault-layer overhead budget. It runs the same
// flash-card simulation as BenchmarkRunNilScope with a fault plan armed
// that can never fire — zero error rates and an unreachable wear-out
// threshold — so every per-operation injector hook (attempt draws, wear-out
// checks, power-fail schedule lookups) executes while injecting nothing.
// The simulated result is identical to the plan-free run; only the hook
// cost differs. `make bench-gate` compares the two from the same process
// (benchdiff -ratio) and fails past +2%, the same budget the disabled
// observability layer lives under (docs/OBSERVABILITY.md).
func BenchmarkFaultOff(b *testing.B) {
	benchRunFaults(b, nil, &fault.Plan{WearOutAfter: 1 << 60})
}

// BenchmarkArrayMirror pins the array layer's healthy-path overhead
// budget. It runs the BenchmarkRunNilScope simulation through a one-member
// mirror — the composite device machinery (fan-out loop, acked-write
// ledger, death checks) wrapped around the same single flash card — so the
// simulated result matches the bare-card run and only the wrapper cost
// differs. `make bench-gate` compares the two from the same process
// (benchdiff -ratio) and fails past +5%.
func BenchmarkArrayMirror(b *testing.B) {
	spec, err := array.ParseSpec("mirror:1xflashcard")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.Synth(workload.SynthConfig{Seed: 7, Ops: 4000})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Trace:           tr,
		Array:           spec,
		FlashCardParams: device.IntelSeries2Datasheet(),
		DRAMBytes:       512 * units.KB,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunActiveScope(b *testing.B) {
	benchRunScope(b, obs.NewScope(obs.NewRegistry(), nil))
}

// countTracer counts events and declares no kind mask, so a scope over it
// builds every event: the emit cost with nothing kept.
type countTracer struct{ n int64 }

func (c *countTracer) Emit(obs.Event) { c.n++ }

func BenchmarkRunTracingScope(b *testing.B) {
	benchRunScope(b, obs.NewScope(obs.NewRegistry(), &countTracer{}))
}

// fleetGridSpec is the fleet-grid job of the benchmark module at one
// replica and one worker: 20,000-op synth traces on a flash card, a flash
// disk and a disk at three utilizations.
var fleetGridSpec = fleet.Spec{Devices: []string{"intel", "sdp5", "cu140"}, Traces: []string{"synth"},
	SynthOps: 20_000, Utilizations: []float64{0.6, 0.8, 0.95}, Replicas: 1, Seed: 1, Workers: 1}

// BenchmarkFleetGrid submits fleetGridSpec to an in-process fleet.Service
// and waits for it: trace generation, nine runs whose events feed the
// fleet's figure builders, and the merge. events/record counts the events
// those builders receive and all-events/record the events an unmasked
// tracer receives from the same runs; both come from an untimed replay of
// the nine runs, whose aggregate report must equal the job's. Profile it
// with `make profile-fleet`.
func BenchmarkFleetGrid(b *testing.B) {
	svc := fleet.NewService(nil)
	defer svc.Shutdown(context.Background())
	var status *fleet.Status
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j, err := svc.Submit(fleetGridSpec)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Finished()
		if status = j.Status(); status.Done != status.Total || status.Failed != 0 {
			b.Fatalf("job ended %s with %d/%d runs done, %d failed: %v",
				status.State, status.Done, status.Total, status.Failed, status.Errors)
		}
	}
	b.StopTimer()
	delivered, all, records := replayFleetGrid(b, status.Report)
	b.ReportMetric(float64(delivered)/float64(records), "events/record")
	b.ReportMetric(float64(all)/float64(records), "all-events/record")
}

// countingTracer counts the events a Scope delivers to a FigureSet under
// the given mask.
type countingTracer struct {
	figs  *obsreport.FigureSet
	kinds obs.KindSet
	n     int64
}

func (c *countingTracer) Emit(e obs.Event) { c.n++; c.figs.Observe(e) }

func (c *countingTracer) Kinds() obs.KindSet { return c.kinds }

// replayFleetGrid reruns fleetGridSpec's nine runs as the fleet configures
// them and counts the events delivered to each run's FigureSet, with a
// fleet run's mask (the kinds of the timeline, wear and cleaning builders,
// the ones its job merges) and with every kind. The masked count is
// events/record only while that mask matches the kinds a fleet run's tracer
// declares, internal/fleet's mergedFigures; the report check below cannot
// see a mismatch. It fails b unless the masked replay's aggregate report
// equals want, the job's report.
func replayFleetGrid(b *testing.B, want *fleet.Report) (delivered, all, records int64) {
	// The fleet derives replica 0's trace seed with SplitMix64 over the
	// job seed and the "trac" stream tag.
	z := uint64(fleetGridSpec.Seed) ^ 0x74726163 + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	tr, err := workload.Synth(workload.SynthConfig{Seed: int64(z ^ z>>31), Ops: fleetGridSpec.SynthOps})
	if err != nil {
		b.Fatal(err)
	}
	prep := core.PrepareTrace(tr)
	agg := fleet.NewAggregator()
	for _, dev := range fleetGridSpec.Devices {
		for _, util := range fleetGridSpec.Utilizations {
			cfg := core.Config{Trace: tr, Prep: prep, SpinDown: fleet.DefaultSpinDown,
				CleaningPolicy: "greedy", FlashUtilization: util}
			if err := fleet.SelectDevice(&cfg, dev, ""); err != nil {
				b.Fatal(err)
			}
			fleet.SizeBuffers(&cfg, -1, -1)
			for _, masked := range []bool{true, false} {
				figs := obsreport.NewFigureSet()
				ct := &countingTracer{figs: figs, kinds: obs.AllKinds}
				if masked {
					ct.kinds = figs.Timeline.Kinds() | figs.Wear.Kinds() | figs.Cleaning.Kinds()
				}
				cfg.Scope = obs.NewScope(nil, ct)
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if !masked {
					all += ct.n
					continue
				}
				delivered += ct.n
				records += int64(len(tr.Records))
				agg.Add(res, figs)
			}
		}
	}
	got, err := json.Marshal(agg.Report())
	if err != nil {
		b.Fatal(err)
	}
	if job, _ := json.Marshal(want); !bytes.Equal(got, job) {
		b.Fatal("the replayed grid's report differs from the job's; the replay no longer mirrors the fleet")
	}
	return delivered, all, records
}

// BenchmarkEventsPipeline is the benchmark module's events-pipeline pass:
// mac on the cu140 behind a 32 KB SRAM buffer and on the intel card at 95%
// utilization, each streamed as NDJSON into a reused buffer, decoded into
// the timeline, latency, wear and cleaning builders and rendered as text.
// Trace generation and preparation stay outside the timer, as in the
// module's set-up. allocs/op counts what the event path allocates, and
// events/op the events streamed. Profile it with `make profile-events`.
func BenchmarkEventsPipeline(b *testing.B) {
	tr, err := experiments.Workload("mac", seed)
	if err != nil {
		b.Fatal(err)
	}
	prep := core.PrepareTrace(tr)
	disk := core.Config{Trace: tr, Prep: prep, DRAMBytes: 2 * units.MB, SRAMBytes: 32 * units.KB, SpinDown: 5 * units.Second}
	card := core.Config{Trace: tr, Prep: prep, DRAMBytes: 2 * units.MB, FlashUtilization: 0.95}
	if err := fleet.SelectDevice(&disk, "cu140", ""); err != nil {
		b.Fatal(err)
	}
	if err := fleet.SelectDevice(&card, "intel", ""); err != nil {
		b.Fatal(err)
	}
	var stream bytes.Buffer
	var events int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events = 0
		for _, cfg := range []core.Config{disk, card} {
			stream.Reset()
			sink := obs.NewNDJSONSink(&stream)
			cfg.Scope = obs.NewScope(nil, sink)
			if _, err := core.Run(cfg); err != nil {
				b.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				b.Fatal(err)
			}
			tl, lat, wear, clean := obsreport.NewTimelineBuilder(), obsreport.NewLatencyBuilder(),
				obsreport.NewWearBuilder(), obsreport.NewCleaningBuilder()
			dec := obsreport.NewDecoder(bytes.NewReader(stream.Bytes()))
			for {
				e, err := dec.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				tl.Observe(e)
				lat.Observe(e)
				wear.Observe(e)
				clean.Observe(e)
				events++
			}
			err := errors.Join(obsreport.WriteTimelines(io.Discard, tl.Finish(), obsreport.Text),
				obsreport.WriteLatency(io.Discard, lat.Finish(), obsreport.Text),
				obsreport.WriteWear(io.Discard, wear.Finish(), obsreport.Text),
				obsreport.WriteCleaning(io.Discard, clean.Finish(), obsreport.Text))
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkSeedSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SeedSensitivity("mac", []int64{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Device == "intel datasheet" {
					b.ReportMetric(r.DiskRatio.Mean(), "disk/intel-ratio")
				}
			}
		}
	}
}

// BenchmarkPrepareTrace measures trace preprocessing — validation and
// per-record placement — over the largest generated workload. The figure
// sweeps memoize PrepareTrace, but every Table 4 run pays it, so this pins
// its standalone cost.
func BenchmarkPrepareTrace(b *testing.B) {
	tr, err := experiments.Workload("mac", seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.PrepareTrace(tr)
		if p.Err() != nil {
			b.Fatal(p.Err())
		}
	}
}

// benchIndex regenerates one engine's indexbench sweep (4 devices × 8
// utilizations) end to end: index-engine trace generation is memoized, so
// ns/op measures the 32 device replays — the cost that dominates the
// indexbench figure. The reported metric pins the engine's index-level
// write amplification, the quantity the figure's story turns on.
func benchIndex(b *testing.B, engine string) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.IndexBenchEngineMix(index.EngineKind(engine), seed, "default")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(points[0].IndexAmp, "index-write-amp")
		}
	}
}

func BenchmarkIndexBTree(b *testing.B) { benchIndex(b, "btree") }
func BenchmarkIndexLSM(b *testing.B)   { benchIndex(b, "lsm") }
