package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"testing"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/disk"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/flashcard"
	"mobilestorage/internal/flashdisk"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/units"
	wl "mobilestorage/internal/workload"
)

// TestRebuiltStackMatchesRun checks the traced run's rebuilt stack against
// core.Run on one short trace for each kind of stack, and that every
// recorded layer stream replays on a fresh layer to the same counters.
func TestRebuiltStackMatchesRun(t *testing.T) {
	tr, err := wl.Synth(wl.SynthConfig{Seed: 3, Ops: 4000})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"card+dram", core.Config{Kind: core.FlashCard, FlashCardParams: device.IntelSeries2Datasheet(),
			DRAMBytes: 2 * units.MB, FlashUtilization: 0.95}},
		{"cu140+sram", core.Config{Kind: core.MagneticDisk, Disk: device.CU140Measured(),
			SpinDown: 5 * units.Second, DRAMBytes: 2 * units.MB, SRAMBytes: 32 * units.KB}},
		{"sdp5", core.Config{Kind: core.FlashDisk, FlashDiskParams: device.SDP5Datasheet(), DRAMBytes: 2 * units.MB}},
		{"uncached card", core.Config{Kind: core.FlashCard, FlashCardParams: device.IntelSeries2Measured()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Trace = tr
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := newPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.replay()
			if err != nil {
				t.Fatal(err)
			}
			if err := diffResults(got.res, want); err != nil {
				t.Fatal(err)
			}

			dev, err := p.newDevice()
			if err != nil {
				t.Fatal(err)
			}
			if bad := replayCalls(dev, got.dev); bad >= 0 {
				t.Fatalf("device replay diverged at call %d of %d", bad, len(got.dev))
			}
			res := &core.Result{}
			deviceCounters(dev, res)
			if !sameDevice(res, want) || dev.Meter().TotalJ() != want.EnergyByComponent["storage"] {
				t.Fatal("device replay did not reproduce the device counters")
			}
			if cfg.DRAMBytes > 0 {
				c, err := p.newCache()
				if err != nil {
					t.Fatal(err)
				}
				if bad := replayCache(c, got.cacheOps); bad >= 0 || c.Hits() != want.CacheHits ||
					c.Meter().TotalJ() != want.EnergyByComponent["dram"] {
					t.Fatalf("cache replay diverged (op %d)", bad)
				}
			}
			if cfg.SRAMBytes > 0 {
				inner, err := p.newDevice()
				if err != nil {
					t.Fatal(err)
				}
				b, err := p.newSRAM(inner)
				if err != nil {
					t.Fatal(err)
				}
				if bad := replayCalls(b, got.top); bad >= 0 || b.Flushes() != want.SRAMFlushes ||
					b.Meter().TotalJ() != want.EnergyByComponent["sram"] {
					t.Fatalf("sram replay diverged (call %d)", bad)
				}
			}
			st := newRespStats()
			for _, s := range got.samples {
				st.add(s)
			}
			if !st.equal(want) {
				t.Fatal("stats replay diverged")
			}
		})
	}
}

// fakeDevice implements every optional method sram.Buffer looks for and
// logs which ones were called.
type fakeDevice struct {
	meter *energy.Meter
	log   []string
}

func (f *fakeDevice) Access(req device.Request) units.Time {
	f.log = append(f.log, "access")
	return req.Time + 1
}
func (f *fakeDevice) Idle(units.Time)          { f.log = append(f.log, "idle") }
func (f *fakeDevice) Finish(units.Time)        { f.log = append(f.log, "finish") }
func (f *fakeDevice) Meter() *energy.Meter     { return f.meter }
func (f *fakeDevice) Name() string             { return "fake" }
func (f *fakeDevice) Spinning(units.Time) bool { f.log = append(f.log, "spinning"); return true }
func (f *fakeDevice) Crash(units.Time)         { f.log = append(f.log, "crash") }
func (f *fakeDevice) Recover(at units.Time) units.Time {
	f.log = append(f.log, "recover")
	return at + 2
}
func (f *fakeDevice) Background(req device.Request) units.Time {
	f.log = append(f.log, "background")
	return req.Time + 3
}

// TestCaptureForwardsOptionalMethods checks that the capture wrapper exposes
// exactly the optional methods of the device it wraps and forwards them:
// sram.Buffer type-asserts Spinning, Background and device.Crasher on its
// inner device, so a wrapper that dropped or added one would change the
// simulation.
func TestCaptureForwardsOptionalMethods(t *testing.T) {
	fake := &fakeDevice{meter: energy.NewMeter()}
	wrapped, rec := capture(fake)
	spin, okSpin := wrapped.(spinStater)
	bg, okBg := wrapped.(backgrounder)
	cr, okCr := wrapped.(device.Crasher)
	if !okSpin || !okBg || !okCr {
		t.Fatalf("wrapper drops methods: spinning %v background %v crasher %v", okSpin, okBg, okCr)
	}
	if !spin.Spinning(5) || bg.Background(device.Request{Time: 5}) != 8 {
		t.Fatal("spinning or background not forwarded")
	}
	cr.Crash(6)
	if cr.Recover(6) != 8 {
		t.Fatal("recover not forwarded")
	}
	want := []string{"spinning", "background", "crash", "recover"}
	if len(fake.log) != len(want) || len(rec.calls) != len(want) {
		t.Fatalf("forwarded %v, recorded %d calls", fake.log, len(rec.calls))
	}
	for i := range want {
		if fake.log[i] != want[i] {
			t.Fatalf("forwarded %v, want %v", fake.log, want)
		}
	}
	if replayCalls(&fakeDevice{meter: energy.NewMeter()}, rec.calls) >= 0 {
		t.Fatal("replay of the recorded optional calls diverged")
	}

	d, err := disk.New(device.CU140Measured())
	if err != nil {
		t.Fatal(err)
	}
	c, err := flashcard.New(device.IntelSeries2Datasheet(), 4*units.MB, 4*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	f, err := flashdisk.New(device.SDP5Datasheet(), 4*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		dev      device.Device
		spin, bg bool
	}{{"disk", d, true, true}, {"flashcard", c, false, true}, {"flashdisk", f, false, false}} {
		w, _ := capture(tc.dev)
		_, spin := w.(spinStater)
		_, bg := w.(backgrounder)
		_, innerSpin := tc.dev.(spinStater)
		_, innerBg := tc.dev.(backgrounder)
		if spin != tc.spin || bg != tc.bg || innerSpin != tc.spin || innerBg != tc.bg {
			t.Errorf("%s: wrapper spinning %v background %v, device %v %v", tc.name, spin, bg, innerSpin, innerBg)
		}
		if _, ok := w.(device.Crasher); !ok {
			t.Errorf("%s: wrapper is not a device.Crasher", tc.name)
		}
	}
}

// TestQuietKernel checks that the reference kernel allocates nothing, so
// that no garbage collection can start while it runs, and that it leaves
// the collector's setting as it found it.
func TestQuietKernel(t *testing.T) {
	if err := mapRefTable(); err != nil {
		t.Fatal(err)
	}
	old := debug.SetGCPercent(73)
	defer debug.SetGCPercent(old)
	quietKernel() // the first metrics read sets up its tables
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if k, _ := quietKernel(); k <= 0 {
		t.Fatalf("kernel took %v", k)
	}
	runtime.ReadMemStats(&m1)
	if m1.Mallocs != m0.Mallocs {
		t.Errorf("kernel allocated %d objects", m1.Mallocs-m0.Mallocs)
	}
	if got := debug.SetGCPercent(73); got != 73 {
		t.Errorf("GC percent after the kernel %d, want 73", got)
	}
}

// TestFleetReconstruction runs a small grid job through the fleet service
// and folds the benchmark's own reconstruction of its runs, seeds re-derived
// with SplitMix64, into a fresh aggregator: the reports must be identical.
func TestFleetReconstruction(t *testing.T) {
	const seed, replicas, ops = 7, 2, 1500
	svc := fleet.NewService(nil)
	j, err := svc.Submit(fleetSpec(seed, replicas, ops))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Finished()
	jobReport, err := json.Marshal(j.Status().Report)
	if err != nil {
		t.Fatal(err)
	}

	ts, err := fleetTraces(seed, replicas, ops)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := fleetRuns(ts)
	if err != nil {
		t.Fatal(err)
	}
	agg := fleet.NewAggregator()
	for _, r := range runs {
		figs := obsreport.NewFigureSet()
		r.cfg.Scope = obs.NewScope(nil, figureTracer{figs})
		res, err := core.Run(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(res, figs)
	}
	got, err := json.Marshal(agg.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, jobReport) {
		t.Fatalf("reconstructed report differs from the job's:\n%s\n%s", got, jobReport)
	}
}
