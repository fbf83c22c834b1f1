package core

import (
	"reflect"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// sampledConfig is a flash-card run with the sampler enabled: flash cards
// exercise the densest counter set (erases, cleans, copies, stalls).
func sampledConfig(t *testing.T, sc *obs.Scope) Config {
	t.Helper()
	tr, err := workload.Synth(workload.SynthConfig{Seed: 7, Ops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Trace:           tr,
		DRAMBytes:       256 * units.KB,
		Kind:            FlashCard,
		FlashCardParams: device.IntelSeries2Datasheet(),
		Scope:           sc,
		SampleEvery:     10 * units.Second,
	}
}

// The sampler's last point must equal the run's final counter snapshot:
// the timeline is a refinement of Result.Metrics, never a divergent copy
// (same invariant style as PR 1's metrics-vs-Result tests).
func TestSamplerTimelineTotalsMatchResult(t *testing.T) {
	sc := obs.NewScope(obs.NewRegistry(), nil)
	res, err := Run(sampledConfig(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil || len(tl.Points) == 0 {
		t.Fatal("no timeline")
	}
	last := tl.Points[len(tl.Points)-1]
	if last.TUs != int64(res.EndTime) {
		t.Errorf("last sample at %d µs, want end time %d", last.TUs, int64(res.EndTime))
	}
	if !reflect.DeepEqual(last.Counters, res.Metrics) {
		t.Errorf("final sample counters diverge from Result.Metrics:\n%v\nvs\n%v", last.Counters, res.Metrics)
	}
	// Counters are monotone along the timeline.
	for name := range last.Counters {
		series := tl.Counter(name)
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1] {
				t.Errorf("counter %s not monotone at point %d: %v", name, i, series)
				break
			}
		}
	}
}

// With warm-up disabled, Result.EnergyJ is cumulative energy since t=0, so
// on every stack shape the final energy.storage_j and energy.total_j
// gauges must equal the Result's storage energy and EnergyJ exactly, and
// the series must be non-decreasing and consistent with the per-component
// breakdown. Arrays once sampled their storage energy as 0.
func TestSamplerEnergyMatchesResult(t *testing.T) {
	for _, row := range stackRows(t) {
		t.Run(row.name, func(t *testing.T) {
			res, err := Run(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			total := res.Timeline.Gauge(GaugeEnergyTotal)
			if len(total) == 0 {
				t.Fatal("no energy series")
			}
			if got := total[len(total)-1]; got != res.EnergyJ {
				t.Errorf("final energy gauge %g J, want Result.EnergyJ %g J", got, res.EnergyJ)
			}
			for i := 1; i < len(total); i++ {
				if total[i] < total[i-1] {
					t.Fatalf("energy series decreases at point %d: %v", i, total)
				}
			}
			last := res.Timeline.Points[len(res.Timeline.Points)-1]
			if got, want := last.Gauges[gaugeEnergyStorage], res.EnergyByComponent["storage"]; got != want {
				t.Errorf("final storage gauge %g J, want Result storage energy %g J", got, want)
			}
			sum := last.Gauges[gaugeEnergyStorage] + last.Gauges[gaugeEnergySRAM] + last.Gauges[gaugeEnergyDRAM]
			if sum != last.Gauges[GaugeEnergyTotal] {
				t.Errorf("component gauges sum to %g, total gauge %g", sum, last.Gauges[GaugeEnergyTotal])
			}
		})
	}
}

// Two identical runs must produce bit-identical timelines: the sampler is
// driven by simulated time only.
func TestSamplerDeterministic(t *testing.T) {
	run := func() *obs.Timeline {
		sc := obs.NewScope(obs.NewRegistry(), nil)
		res, err := Run(sampledConfig(t, sc))
		if err != nil {
			t.Fatal(err)
		}
		return res.Timeline
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("timelines differ between identical runs")
	}
}

// Attaching the sampler must not change simulation results (the scope
// invariant extends to sampling).
func TestSamplerDoesNotChangeResults(t *testing.T) {
	plain := sampledConfig(t, nil)
	plain.SampleEvery = 0
	base, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(sampledConfig(t, obs.NewScope(obs.NewRegistry(), obs.NewCollector(obs.AllKinds))))
	if err != nil {
		t.Fatal(err)
	}
	if base.EnergyJ != sampled.EnergyJ {
		t.Errorf("energy changed: %g vs %g", base.EnergyJ, sampled.EnergyJ)
	}
	if base.Read != sampled.Read || base.Write != sampled.Write {
		t.Error("response statistics changed under sampling")
	}
	if base.Erases != sampled.Erases {
		t.Errorf("erases changed: %d vs %d", base.Erases, sampled.Erases)
	}
}

// Sampling with a tracer interleaves sample.energy events into the stream,
// cumulative and labelled with the sample time.
func TestSamplerEmitsEnergyEvents(t *testing.T) {
	col := obs.NewCollector(obs.Kinds(obs.EvEnergySample))
	sc := obs.NewScope(obs.NewRegistry(), col)
	res, err := Run(sampledConfig(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	events := col.Events()
	if len(events) == 0 {
		t.Fatal("no sample.energy events")
	}
	var lastTotal int64 = -1
	var totals int
	for _, e := range events {
		if e.Dev != "total" {
			continue
		}
		totals++
		if e.Size < lastTotal {
			t.Fatalf("total energy regressed: %d µJ after %d µJ", e.Size, lastTotal)
		}
		lastTotal = e.Size
	}
	if totals != len(res.Timeline.Points) {
		t.Errorf("%d total-energy events, want one per timeline point (%d)", totals, len(res.Timeline.Points))
	}
	// Final event agrees with the final gauge to within µJ rounding.
	wantUJ := microjoules(res.Timeline.Points[len(res.Timeline.Points)-1].Gauges[GaugeEnergyTotal])
	if lastTotal != wantUJ {
		t.Errorf("final event %d µJ, want %d", lastTotal, wantUJ)
	}
}

// Sampling without a registry (tracer-only scope) is a configured no-op.
func TestSamplerNeedsRegistry(t *testing.T) {
	cfg := sampledConfig(t, obs.NewScope(nil, obs.NewCollector(obs.AllKinds)))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline != nil {
		t.Error("timeline produced without a registry")
	}
}
