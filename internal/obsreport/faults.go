package obsreport

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/plot"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/units"
)

// DeviceFaults is one device's share of the injected faults.
type DeviceFaults struct {
	Dev         string `json:"dev"`
	ReadFaults  int64  `json:"read_faults"`
	WriteFaults int64  `json:"write_faults"`
	EraseFaults int64  `json:"erase_faults"`
	Retries     int64  `json:"retries"`
	BackoffUs   int64  `json:"backoff_us"`
	Remaps      int64  `json:"remaps"`
	// SparesExhausted counts wear-out deaths past the device's spare pool.
	SparesExhausted int64 `json:"spares_exhausted"`
	// Reclaims counts retired units pressed back into service under
	// capacity pressure.
	Reclaims       int64 `json:"reclaims"`
	ReplayedBlocks int64 `json:"replayed_blocks"`
	// InjectionTimesUs are the simulated times of this device's injected
	// faults, in stream order — the raw series behind the cumulative chart.
	InjectionTimesUs []int64 `json:"injection_times_us"`
}

// FaultsReport summarizes a run's fault injection from fault.injected,
// retry.attempt, remap, reclaim, power.fail, and recovery.replayed
// events: how the
// injected errors distributed over devices and op classes, what the retries
// cost in backoff, and when power failed.
type FaultsReport struct {
	Devices  []DeviceFaults `json:"devices"`
	Injected int64          `json:"injected"`
	Retries  int64          `json:"retries"`
	// BackoffUs is the cumulative simulated backoff delay.
	BackoffUs int64 `json:"backoff_us"`
	// BackoffHist is the distribution of individual backoff delays in ms.
	BackoffHist     *stats.Histogram `json:"backoff_hist"`
	Remaps          int64            `json:"remaps"`
	SparesExhausted int64            `json:"spares_exhausted"`
	Reclaims        int64            `json:"reclaims"`
	// PowerFailures counts injected power failures; PowerFailUs carries the
	// individual failure times.
	PowerFailures  int64   `json:"power_failures"`
	PowerFailUs    []int64 `json:"power_fail_us"`
	ReplayedBlocks int64   `json:"replayed_blocks"`
}

// backoffLayout covers retry backoff delays from 1 µs to 1 s, in ms.
var backoffLayout = stats.NewDurationLayout(stats.LogBounds(1e-3, 1e3), units.Millisecond)

// FaultsBuilder accumulates fault-injection activity incrementally.
type FaultsBuilder struct {
	r     *FaultsReport
	byDev map[string]*DeviceFaults
}

// NewFaultsBuilder returns an empty faults builder.
func NewFaultsBuilder() *FaultsBuilder {
	return &FaultsBuilder{
		r:     &FaultsReport{BackoffHist: backoffLayout.NewHistogram()},
		byDev: make(map[string]*DeviceFaults),
	}
}

func (b *FaultsBuilder) get(dev string) *DeviceFaults {
	d, ok := b.byDev[dev]
	if !ok {
		d = &DeviceFaults{Dev: dev}
		b.byDev[dev] = d
	}
	return d
}

// Kinds implements obs.KindFilter: the kinds Observe reads.
func (b *FaultsBuilder) Kinds() obs.KindSet {
	return obs.Kinds(obs.EvFaultInjected, obs.EvRetryAttempt, obs.EvRemap,
		obs.EvReclaim, obs.EvPowerFail, obs.EvRecoveryReplayed)
}

// Observe implements Reporter. Fault events carry the op class in Addr
// (0 = read, 1 = write, 2 = erase); remap events carry the remaining spare
// count in Size, with -1 marking a death past the spare pool.
func (b *FaultsBuilder) Observe(e obs.Event) {
	switch e.Kind {
	case obs.EvFaultInjected:
		d := b.get(e.Dev)
		switch e.Addr {
		case 0:
			d.ReadFaults++
		case 1:
			d.WriteFaults++
		default:
			d.EraseFaults++
		}
		d.InjectionTimesUs = append(d.InjectionTimesUs, e.T)
		b.r.Injected++
	case obs.EvRetryAttempt:
		d := b.get(e.Dev)
		d.Retries++
		d.BackoffUs += e.Dur
		b.r.Retries++
		b.r.BackoffUs += e.Dur
		b.r.BackoffHist.AddDuration(backoffLayout, units.Time(e.Dur))
	case obs.EvRemap:
		d := b.get(e.Dev)
		if e.Size < 0 {
			d.SparesExhausted++
			b.r.SparesExhausted++
		} else {
			d.Remaps++
			b.r.Remaps++
		}
	case obs.EvReclaim:
		d := b.get(e.Dev)
		d.Reclaims++
		b.r.Reclaims++
	case obs.EvPowerFail:
		b.r.PowerFailures++
		b.r.PowerFailUs = append(b.r.PowerFailUs, e.T)
	case obs.EvRecoveryReplayed:
		b.get(e.Dev).ReplayedBlocks += e.Size
		b.r.ReplayedBlocks += e.Size
	}
}

// Finish returns the report with devices in sorted name order. The report
// is zero-valued for fault-free runs (no fault.* events).
func (b *FaultsBuilder) Finish() *FaultsReport {
	devs := make([]string, 0, len(b.byDev))
	for d := range b.byDev {
		devs = append(devs, d)
	}
	sort.Strings(devs)
	b.r.Devices = b.r.Devices[:0]
	for _, d := range devs {
		b.r.Devices = append(b.r.Devices, *b.byDev[d])
	}
	return b.r
}

// WriteFaults renders the faults report.
func WriteFaults(w io.Writer, r *FaultsReport, f Format) error {
	switch f {
	case JSON:
		return writeJSON(w, r)
	case SVG:
		return FaultsChart(r).Render(w)
	case CSV:
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"dev", "read_faults", "write_faults", "erase_faults",
			"retries", "backoff_us", "remaps", "spares_exhausted", "reclaims", "replayed_blocks"}); err != nil {
			return err
		}
		for _, d := range r.Devices {
			cw.Write([]string{d.Dev, itoa(d.ReadFaults), itoa(d.WriteFaults), itoa(d.EraseFaults),
				itoa(d.Retries), itoa(d.BackoffUs), itoa(d.Remaps), itoa(d.SparesExhausted),
				itoa(d.Reclaims), itoa(d.ReplayedBlocks)})
		}
		cw.Flush()
		return cw.Error()
	default:
		if r.Injected == 0 && len(r.PowerFailUs) == 0 && r.Remaps+r.SparesExhausted == 0 {
			fmt.Fprintln(w, "no fault events in stream (run storagesim with -faults)")
			return nil
		}
		fmt.Fprintf(w, "%d faults injected, %d retries, %.1f ms total backoff\n",
			r.Injected, r.Retries, float64(r.BackoffUs)/1e3)
		if r.Remaps+r.SparesExhausted > 0 {
			fmt.Fprintf(w, "%d erase units remapped to spares, %d deaths past the spare pool\n",
				r.Remaps, r.SparesExhausted)
		}
		if r.Reclaims > 0 {
			fmt.Fprintf(w, "%d retired units reclaimed under capacity pressure\n", r.Reclaims)
		}
		if len(r.PowerFailUs) > 0 {
			fmt.Fprintf(w, "%d power failures at t =", len(r.PowerFailUs))
			for _, t := range r.PowerFailUs {
				fmt.Fprintf(w, " %.1f s", float64(t)/1e6)
			}
			fmt.Fprintf(w, "; %d blocks replayed from battery-backed SRAM\n", r.ReplayedBlocks)
		}
		if len(r.Devices) > 0 {
			fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %12s %7s %10s %9s\n",
				"dev", "read", "write", "erase", "retries", "backoff ms", "remaps", "exhausted", "replayed")
			for _, d := range r.Devices {
				name := d.Dev
				if name == "" {
					name = "(unnamed)"
				}
				fmt.Fprintf(w, "%-10s %8d %8d %8d %8d %12.1f %7d %10d %9d\n",
					name, d.ReadFaults, d.WriteFaults, d.EraseFaults, d.Retries,
					float64(d.BackoffUs)/1e3, d.Remaps, d.SparesExhausted, d.ReplayedBlocks)
			}
		}
		if r.BackoffHist.N > 0 {
			fmt.Fprintf(w, "backoff ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
				r.BackoffHist.Quantile(0.50), r.BackoffHist.Quantile(0.90),
				r.BackoffHist.Quantile(0.99), r.BackoffHist.Max)
			writeHistText(w, "", r.BackoffHist, "ms")
		}
		return nil
	}
}

// FaultsChart renders cumulative injected faults over simulated time, one
// line per device, with vertical markers at the injected power failures.
func FaultsChart(r *FaultsReport) *plot.Chart {
	c := &plot.Chart{
		Title:  "Injected faults over time",
		XLabel: "simulated time (s)",
		YLabel: "cumulative faults",
	}
	var peak float64
	for _, d := range r.Devices {
		if len(d.InjectionTimesUs) == 0 {
			continue
		}
		name := d.Dev
		if name == "" {
			name = "(unnamed)"
		}
		pts := make([]plot.Point, 0, len(d.InjectionTimesUs)+1)
		pts = append(pts, plot.Point{X: 0, Y: 0})
		for i, t := range d.InjectionTimesUs {
			pts = append(pts, plot.Point{X: float64(t) / 1e6, Y: float64(i + 1)})
		}
		if n := float64(len(d.InjectionTimesUs)); n > peak {
			peak = n
		}
		c.Series = append(c.Series, plot.Series{Name: name, Step: true, Points: pts})
	}
	if peak == 0 {
		peak = 1
	}
	for i, t := range r.PowerFailUs {
		x := float64(t) / 1e6
		c.Series = append(c.Series, plot.Series{
			Name:   fmt.Sprintf("power.fail %d", i+1),
			Points: []plot.Point{{X: x, Y: 0}, {X: x, Y: peak}},
		})
	}
	return c
}

// DiffFaults compares fault-injection totals between two runs.
func DiffFaults(a, b *FaultsReport) []DeltaRow {
	return []DeltaRow{
		row("injected", float64(a.Injected), float64(b.Injected)),
		row("retries", float64(a.Retries), float64(b.Retries)),
		row("backoff_ms", float64(a.BackoffUs)/1e3, float64(b.BackoffUs)/1e3),
		row("remaps", float64(a.Remaps), float64(b.Remaps)),
		row("spares_exhausted", float64(a.SparesExhausted), float64(b.SparesExhausted)),
		row("reclaims", float64(a.Reclaims), float64(b.Reclaims)),
		row("power_failures", float64(len(a.PowerFailUs)), float64(len(b.PowerFailUs))),
		row("replayed_blocks", float64(a.ReplayedBlocks), float64(b.ReplayedBlocks)),
	}
}
