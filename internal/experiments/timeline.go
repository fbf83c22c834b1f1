package experiments

import (
	"fmt"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/units"
)

// ---------------------------------------------------------- energy vs. time

// energySamples is how many sampler intervals the energy-over-time curves
// use; the interval is derived from the trace duration so every
// configuration shares the same time axis.
const energySamples = 24

// EnergyCurve is one configuration's cumulative energy over the mac trace.
type EnergyCurve struct {
	Label  string
	TimesS []float64
	Joules []float64
}

// Final returns the curve's last (total) energy.
func (c EnergyCurve) Final() float64 {
	if len(c.Joules) == 0 {
		return 0
	}
	return c.Joules[len(c.Joules)-1]
}

// EnergyOverTime traces cumulative storage-system energy across the mac
// trace for three configurations the paper contrasts: the CU140 disk with
// the 5 s spin-down policy, the same disk never spun down, and the Intel
// flash card. The curves come from the simulated-time sampler (the
// energy.total_j gauge), so this is also an end-to-end exercise of the
// sampling path.
func EnergyOverTime(seed int64) ([]EnergyCurve, error) {
	t, err := Workload("mac", seed)
	if err != nil {
		return nil, err
	}
	interval := t.Duration() / energySamples
	if interval < units.Second {
		interval = units.Second
	}

	type spec struct {
		label     string
		configure func(cfg *core.Config)
	}
	specs := []spec{
		{"cu140 spin-down 5s", func(cfg *core.Config) {
			cfg.Kind = core.MagneticDisk
			cfg.Disk = device.CU140Measured()
			cfg.SpinDown = fleet.DefaultSpinDown
			cfg.SRAMBytes = fleet.DefaultSRAM
		}},
		{"cu140 always on", func(cfg *core.Config) {
			cfg.Kind = core.MagneticDisk
			cfg.Disk = device.CU140Measured()
			cfg.SpinDown = 0 // never spin down
			cfg.SRAMBytes = fleet.DefaultSRAM
		}},
		{"intel flash card", func(cfg *core.Config) {
			cfg.Kind = core.FlashCard
			cfg.FlashCardParams = device.IntelSeries2Measured()
			cfg.FlashCapacity = table4FlashCapacity
			cfg.StoredData = table4StoredData
		}},
	}

	curves := make([]EnergyCurve, len(specs))
	err = fanOut(len(specs), func(i int) error {
		cfg := core.Config{
			Trace:       t,
			DRAMBytes:   fleet.DefaultDRAM("mac"),
			SampleEvery: interval,
			Scope:       obs.NewScope(obs.NewRegistry(), nil),
		}
		specs[i].configure(&cfg)
		res, err := core.Run(cfg)
		if err != nil {
			return fmt.Errorf("energy-over-time %s: %w", specs[i].label, err)
		}
		tl := res.Timeline
		if tl == nil || len(tl.Points) == 0 {
			return fmt.Errorf("energy-over-time %s: no sampler timeline", specs[i].label)
		}
		c := EnergyCurve{Label: specs[i].label}
		for _, p := range tl.Points {
			c.TimesS = append(c.TimesS, float64(p.TUs)/1e6)
			c.Joules = append(c.Joules, p.Gauges[core.GaugeEnergyTotal])
		}
		curves[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return curves, nil
}

// RenderEnergyOverTime prints the curves as a shared-axis table (curves
// share sampler boundaries; only the final end-of-run point differs).
func RenderEnergyOverTime(curves []EnergyCurve) string {
	t := &table{header: []string{"t (s)"}}
	longest := 0
	for i, c := range curves {
		t.header = append(t.header, c.Label+" (J)")
		if len(c.TimesS) > len(curves[longest].TimesS) {
			longest = i
		}
	}
	for i := range curves[longest].TimesS {
		row := []string{f0(curves[longest].TimesS[i])}
		for _, c := range curves {
			if i < len(c.TimesS) {
				row = append(row, f1(c.Joules[i]))
			} else {
				row = append(row, "")
			}
		}
		t.addRow(row...)
	}
	out := "Cumulative storage energy over the mac trace (sampler timeline)\n\n" + t.String()
	for _, c := range curves {
		out += fmt.Sprintf("final %-22s %s J\n", c.Label, f1(c.Final()))
	}
	return out
}

// ------------------------------------------------- cleaning vs. utilization

// CleaningPoint is one utilization step of the cleaning-efficiency sweep.
type CleaningPoint struct {
	Utilization  float64
	Cleans       int64
	CopiedBlocks int64
	LivePerClean float64 // mean live blocks relocated per clean
	P90LivePerGC float64
	WriteStalls  int64
	CleanSeconds float64
}

// CleaningEfficiency sweeps flash-card utilization on the dos trace and
// derives the cleaner's efficiency from the event stream (an in-process
// obsreport.FigureSet as the run's tracer): as utilization rises, each
// victim segment holds more live data, so the cleaner copies more per
// erase — the §5.3 overhead curve behind Figure 2.
func CleaningEfficiency(seed int64) ([]CleaningPoint, error) {
	t, err := Workload("dos", seed)
	if err != nil {
		return nil, err
	}
	utils := []float64{0.80, 0.85, 0.90, 0.95}
	seg := device.IntelSeries2Datasheet().SegmentSize
	prep := prepare(t)
	capacity := units.CeilDiv(units.Bytes(float64(prep.Footprint())/utils[0]), seg) * seg

	points := make([]CleaningPoint, len(utils))
	err = fanOut(len(utils), func(i int) error {
		util := utils[i]
		figs := obsreport.NewFigureSet()
		cfg := core.Config{
			Trace:           t,
			Prep:            prep,
			DRAMBytes:       fleet.DefaultDRAM("dos"),
			Kind:            core.FlashCard,
			FlashCardParams: device.IntelSeries2Datasheet(),
			FlashCapacity:   capacity,
			StoredData:      units.Bytes(float64(capacity) * util),
			Scope:           obs.NewScope(nil, figs),
		}
		res, err := core.Run(cfg)
		if err != nil {
			return fmt.Errorf("cleaning-efficiency util %.2f: %w", util, err)
		}
		rep := figs.Cleaning.Finish()
		// Cross-check the derived report against the run's own counters.
		if rep.CopiedBlocks != res.CopiedBlocks || rep.Stalls != res.WriteStalls {
			return fmt.Errorf("cleaning-efficiency util %.2f: stream (%d copied, %d stalls) disagrees with result (%d, %d)",
				util, rep.CopiedBlocks, rep.Stalls, res.CopiedBlocks, res.WriteStalls)
		}
		points[i] = CleaningPoint{
			Utilization:  util,
			Cleans:       rep.Cleans,
			CopiedBlocks: rep.CopiedBlocks,
			LivePerClean: rep.MeanLivePerClean,
			P90LivePerGC: rep.LivePerClean.Quantile(0.90),
			WriteStalls:  rep.Stalls,
			CleanSeconds: float64(rep.TotalCleanUs) / 1e6,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// RenderCleaningEfficiency prints the sweep.
func RenderCleaningEfficiency(points []CleaningPoint) string {
	t := &table{header: []string{"util", "cleans", "copied", "live/clean", "p90 live", "stalls", "clean s"}}
	for _, p := range points {
		t.addRow(f2(p.Utilization), fmt.Sprint(p.Cleans), fmt.Sprint(p.CopiedBlocks),
			f2(p.LivePerClean), f1(p.P90LivePerGC), fmt.Sprint(p.WriteStalls), f1(p.CleanSeconds))
	}
	return "Cleaning efficiency vs. utilization, dos trace, Intel Series 2 card\n" +
		"(derived from the flashcard.clean event stream)\n\n" + t.String()
}
