package core

import (
	"math"
	"testing"

	"mobilestorage/internal/array"
	"mobilestorage/internal/cache"
	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// stackRow is one storage-stack shape the stack helpers must report
// correctly.
type stackRow struct {
	name string
	cfg  Config
}

// stackRows covers every shape buildStack produces — a disk under SRAM, a
// flash disk, a flash card, the flash-cache hybrid, and flash-card, disk
// and mixed arrays with and without SRAM — each sampled into its own
// registry, with warm-up off so Result.EnergyJ is the cumulative energy
// since t=0.
func stackRows(t *testing.T) []stackRow {
	t.Helper()
	tr, err := workload.Synth(workload.SynthConfig{Seed: 7, Ops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(s string) *array.Spec {
		sp, err := array.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	rows := []stackRow{
		{"cu140+sram", Config{Kind: MagneticDisk, SRAMBytes: 32 * units.KB}},
		{"sdp5", Config{Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet()}},
		{"intel", Config{Kind: FlashCard}},
		{"flashcache-hybrid", Config{Kind: FlashCache, FlashCacheBytes: 4 * units.MB}},
		{"mirror:2xflashcard", Config{Array: spec("mirror:2xflashcard")}},
		{"stripe:3xflashcard", Config{Array: spec("stripe:3xflashcard")}},
		{"mirror:flashcard+disk", Config{Array: spec("mirror:flashcard+disk")}},
		{"stripe:2xdisk+sram", Config{Array: spec("stripe:2xdisk"), SRAMBytes: 32 * units.KB}},
	}
	for i := range rows {
		c := &rows[i].cfg
		c.Trace, c.DRAMBytes = tr, 256*units.KB
		c.Disk, c.SpinDown = device.CU140Measured(), 5*units.Second
		c.FlashCardParams = device.IntelSeries2Datasheet()
		c.WarmFraction, c.SampleEvery = -1, 10*units.Second
		c.Scope = obs.NewScope(obs.NewRegistry(), nil)
	}
	return rows
}

// TestResultCountersMatchMetrics checks the Result's device counters
// against the registry on every stack shape. The registry counts every
// disk and flash card the run built, so the Result must too: arrays with
// disk members once reported no spin-ups at all, and the hybrid no
// cleaning or host time.
func TestResultCountersMatchMetrics(t *testing.T) {
	for _, row := range stackRows(t) {
		t.Run(row.name, func(t *testing.T) {
			res, err := Run(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			check := func(name string, got int64) {
				t.Helper()
				if want := m[name]; got != want {
					t.Errorf("Result says %d, metric %s = %d", got, name, want)
				}
			}
			check("disk.spin_ups", res.SpinUps)
			check("disk.spin_downs", res.SpinDowns)
			if _, ok := m["flashcard.erases"]; ok {
				check("flashcard.erases", res.Erases)
				check("flashcard.copied_blocks", res.CopiedBlocks)
				check("flashcard.host_blocks", res.HostBlocks)
				check("flashcard.stalls", res.WriteStalls)
			}
			if m["flashcard.host_blocks"] > 0 && res.CleaningTime+res.HostTime <= 0 {
				t.Errorf("flash cards wrote %d host blocks, but cleaning time %v + host time %v is not positive",
					m["flashcard.host_blocks"], res.CleaningTime, res.HostTime)
			}
		})
	}
}

// replayStack builds row's stack and a DRAM cache and drives both directly
// over the row's trace, so each component's meter holds the whole run.
func replayStack(t *testing.T, row stackRow) (*stack, *cache.RefCache) {
	t.Helper()
	cfg := row.cfg.withDefaults()
	tr := cfg.Trace
	prep := PrepareTrace(tr)
	st, err := buildStack(cfg, tr.BlockSize, prep.Footprint(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dram, err := cache.NewRef(*cfg.DRAM, cfg.DRAMBytes, tr.BlockSize, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var end units.Time
	for i, rec := range tr.Records {
		st.top.Idle(rec.Time)
		if rec.Op == trace.Delete {
			continue
		}
		end = max(end, st.top.Access(device.Request{
			Time: rec.Time, Op: rec.Op, File: rec.File, Addr: prep.placements[i], Size: rec.Size,
		}))
		dram.AccessTime(rec.Size)
	}
	st.top.Finish(end)
	dram.AccrueStandby(end)
	return st, dram
}

// TestStackMetersReportsEveryComponent drives every stack shape directly
// and checks totalEnergy against its components: the storage device, every
// part of a composite counted exactly once, plus SRAM and DRAM.
func TestStackMetersReportsEveryComponent(t *testing.T) {
	for _, row := range stackRows(t) {
		t.Run(row.name, func(t *testing.T) {
			st, dram := replayStack(t, row)
			var want float64
			for _, p := range parts(st.base) {
				j := p.Meter().TotalJ()
				if j <= 0 {
					t.Errorf("part %s accrued no energy", p.Name())
				}
				want += j
			}
			if st.buffer != nil {
				want += st.buffer.Meter().TotalJ()
			}
			want += dram.Meter().TotalJ()
			// The hybrid merges its parts' meters state by state, which
			// reorders the float additions, so the sums agree to rounding.
			if got := totalEnergy(st, dram); math.Abs(got-want) > 1e-12*want {
				t.Errorf("totalEnergy = %.15g J, storage + SRAM + DRAM = %.15g J", got, want)
			}
		})
	}
}

// TestStackMetersPartial checks each stack shape reports exactly its own
// parts — a single device is its one part, the hybrid its disk and card, an
// array its members — and that totalEnergy with no DRAM cache counts the
// storage and SRAM alone.
func TestStackMetersPartial(t *testing.T) {
	wantParts := map[string]int{
		"cu140+sram":            1,
		"sdp5":                  1,
		"intel":                 1,
		"flashcache-hybrid":     2,
		"mirror:2xflashcard":    2,
		"stripe:3xflashcard":    3,
		"mirror:flashcard+disk": 2,
		"stripe:2xdisk+sram":    2,
	}
	for _, row := range stackRows(t) {
		t.Run(row.name, func(t *testing.T) {
			want, ok := wantParts[row.name]
			if !ok {
				t.Fatalf("no part count for row %s", row.name)
			}
			st, _ := replayStack(t, row)
			ps := parts(st.base)
			if len(ps) != want {
				t.Fatalf("parts() returned %d parts, want %d", len(ps), want)
			}
			if want == 1 && ps[0] != st.base {
				t.Errorf("single device's part is %T, not the device itself", ps[0])
			}
			seen := make(map[device.Device]bool)
			var storage float64
			for i, p := range ps {
				if seen[p] {
					t.Fatalf("parts()[%d] reported twice", i)
				}
				seen[p] = true
				storage += p.Meter().TotalJ()
			}
			if wantBuf := row.cfg.SRAMBytes > 0; (st.buffer != nil) != wantBuf {
				t.Errorf("stack has SRAM buffer %v, want %v", st.buffer != nil, wantBuf)
			}
			if st.buffer != nil {
				storage += st.buffer.Meter().TotalJ()
			}
			if got := totalEnergy(st, nil); math.Abs(got-storage) > 1e-12*storage {
				t.Errorf("totalEnergy without DRAM = %.15g J, storage + SRAM = %.15g J", got, storage)
			}
		})
	}
}

// crashStub records the order of Device and Crasher calls.
type crashStub struct {
	meter      *energy.Meter
	calls      []string
	times      []units.Time
	recoverDur units.Time
}

func (s *crashStub) Access(req device.Request) units.Time { return req.Time }
func (s *crashStub) Idle(now units.Time) {
	s.calls = append(s.calls, "idle")
	s.times = append(s.times, now)
}
func (s *crashStub) Finish(now units.Time) {}
func (s *crashStub) Meter() *energy.Meter  { return s.meter }
func (s *crashStub) Name() string          { return "crash-stub" }
func (s *crashStub) Crash(at units.Time) {
	s.calls = append(s.calls, "crash")
	s.times = append(s.times, at)
}
func (s *crashStub) Recover(at units.Time) units.Time {
	s.calls = append(s.calls, "recover")
	s.times = append(s.times, at)
	return at + s.recoverDur
}

// TestCrashAndRecoverOrdering pins the power-failure protocol the core
// promises devices: Idle(at), then Crash(at), then Recover(at), all at the
// crash instant, with recovery completing no earlier than the crash.
func TestCrashAndRecoverOrdering(t *testing.T) {
	cases := []struct {
		name       string
		at         units.Time
		recoverDur units.Time
	}{
		{"at-zero", 0, 0},
		{"mid-run", 90 * units.Second, 3 * units.Millisecond},
		{"instant-recovery", 5 * units.Second, 0},
		{"slow-recovery", 12 * units.Hour, 2 * units.Second},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stub := &crashStub{meter: energy.NewMeter(), recoverDur: c.recoverDur}
			st := &stack{top: stub, base: stub}
			crashAndRecover(st, nil, nil, Config{}, c.at)
			want := []string{"idle", "crash", "recover"}
			if len(stub.calls) != len(want) {
				t.Fatalf("calls = %v, want %v", stub.calls, want)
			}
			for i, call := range want {
				if stub.calls[i] != call {
					t.Fatalf("call %d = %q, want %q (sequence %v)", i, stub.calls[i], call, stub.calls)
				}
				if stub.times[i] != c.at {
					t.Errorf("%s called at %v, want crash instant %v", call, stub.times[i], c.at)
				}
			}
		})
	}
}

// TestRealDevicesRecoverAfterCrashInstant checks every stack shape
// honors the timing half of the protocol: Recover(at) never completes
// before the crash instant.
func TestRealDevicesRecoverAfterCrashInstant(t *testing.T) {
	const at = 45 * units.Second
	for _, row := range stackRows(t) {
		cfg := row.cfg.withDefaults()
		st, err := buildStack(cfg, cfg.Trace.BlockSize, PrepareTrace(cfg.Trace).Footprint(), nil)
		if err != nil {
			t.Fatal(err)
		}
		cr, ok := st.top.(device.Crasher)
		if !ok {
			t.Errorf("%s: %T models no power failure", row.name, st.top)
			continue
		}
		st.top.Idle(at)
		cr.Crash(at)
		if done := cr.Recover(at); done < at {
			t.Errorf("%s: recovery completed at %v, before crash instant %v", row.name, done, at)
		}
	}
}
