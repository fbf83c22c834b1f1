package obsreport

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/plot"
)

// ArrayDevice is one device's share of the degraded-mode activity: deaths,
// mirror degradations and rebuilds, latent faults scrubbed on read, and
// cleaning backlog carried across power failures. For array runs the Dev is
// usually the member device ("intel-measured#0"); single-device runs with
// latent or backlog plans show up here too.
type ArrayDevice struct {
	Dev string `json:"dev"`
	// Deaths counts whole-device deaths; EraseDeaths is the subset caused
	// by die_after_erases (the rest were scheduled die_at_us deaths).
	Deaths      int64 `json:"deaths"`
	EraseDeaths int64 `json:"erase_deaths"`
	// Degradations counts mirror transitions to degraded mode attributed to
	// this array; Rebuilds the completed replacement copies.
	Degradations  int64 `json:"degradations"`
	Rebuilds      int64 `json:"rebuilds"`
	RebuildBlocks int64 `json:"rebuild_blocks"`
	RebuildUs     int64 `json:"rebuild_us"`
	// LatentSurfaced counts poisoned blocks scrubbed on read; ScrubUs is
	// the read-latency penalty those scrubs charged.
	LatentSurfaced int64 `json:"latent_surfaced"`
	ScrubUs        int64 `json:"scrub_us"`
	// Backlogs counts interrupted cleaning jobs carried across power
	// failures; BacklogBlocks the live blocks still to relocate at the
	// crash; DrainUs the recovery time the drains added.
	Backlogs      int64 `json:"backlogs"`
	BacklogBlocks int64 `json:"backlog_blocks"`
	DrainUs       int64 `json:"drain_us"`
	// LatentTimesUs are the simulated times latent faults surfaced on this
	// device, in stream order — the raw series behind the chart.
	LatentTimesUs []int64 `json:"latent_times_us"`
}

// ArrayReport summarizes a run's degraded-mode activity from device.die,
// array.degraded, array.rebuild, fault.latent, and cleaning.backlog events:
// which members died and when, how long the array ran degraded before each
// rebuild completed, how much silent rot surfaced, and what the carried
// cleaning backlog cost at recovery.
type ArrayReport struct {
	Devices        []ArrayDevice `json:"devices"`
	Deaths         int64         `json:"deaths"`
	EraseDeaths    int64         `json:"erase_deaths"`
	Degradations   int64         `json:"degradations"`
	Rebuilds       int64         `json:"rebuilds"`
	RebuildBlocks  int64         `json:"rebuild_blocks"`
	RebuildUs      int64         `json:"rebuild_us"`
	LatentSurfaced int64         `json:"latent_surfaced"`
	ScrubUs        int64         `json:"scrub_us"`
	Backlogs       int64         `json:"backlogs"`
	BacklogBlocks  int64         `json:"backlog_blocks"`
	DrainUs        int64         `json:"drain_us"`
	// DeathUs and RebuildDoneUs carry the individual death and
	// rebuild-completion times — the vertical markers on the chart.
	DeathUs       []int64 `json:"death_us"`
	RebuildDoneUs []int64 `json:"rebuild_done_us"`
}

// ArrayBuilder accumulates degraded-mode array activity incrementally.
type ArrayBuilder struct {
	r     *ArrayReport
	byDev map[string]*ArrayDevice
}

// NewArrayBuilder returns an empty array builder.
func NewArrayBuilder() *ArrayBuilder {
	return &ArrayBuilder{
		r:     &ArrayReport{},
		byDev: make(map[string]*ArrayDevice),
	}
}

func (b *ArrayBuilder) get(dev string) *ArrayDevice {
	d, ok := b.byDev[dev]
	if !ok {
		d = &ArrayDevice{Dev: dev}
		b.byDev[dev] = d
	}
	return d
}

// Kinds implements obs.KindFilter: the kinds Observe reads.
func (b *ArrayBuilder) Kinds() obs.KindSet {
	return obs.Kinds(obs.EvDeviceDie, obs.EvArrayDegraded, obs.EvArrayRebuild,
		obs.EvFaultLatent, obs.EvCleaningBacklog)
}

// Observe implements Reporter. device.die carries the member index in Addr
// and 1 in Size for an endurance death; array.degraded carries the dead
// member in Addr and the survivor count in Size; array.rebuild carries the
// rebuilt member in Addr, copied blocks in Size, and the rebuild duration
// in Dur; fault.latent carries the surfaced block count in Size and the
// scrub penalty in Dur; cleaning.backlog carries the victim segment in
// Addr, the live blocks in Size, and the drain time in Dur.
func (b *ArrayBuilder) Observe(e obs.Event) {
	switch e.Kind {
	case obs.EvDeviceDie:
		d := b.get(e.Dev)
		d.Deaths++
		b.r.Deaths++
		if e.Size != 0 {
			d.EraseDeaths++
			b.r.EraseDeaths++
		}
		b.r.DeathUs = append(b.r.DeathUs, e.T)
	case obs.EvArrayDegraded:
		d := b.get(e.Dev)
		d.Degradations++
		b.r.Degradations++
	case obs.EvArrayRebuild:
		d := b.get(e.Dev)
		d.Rebuilds++
		d.RebuildBlocks += e.Size
		d.RebuildUs += e.Dur
		b.r.Rebuilds++
		b.r.RebuildBlocks += e.Size
		b.r.RebuildUs += e.Dur
		b.r.RebuildDoneUs = append(b.r.RebuildDoneUs, e.T)
	case obs.EvFaultLatent:
		d := b.get(e.Dev)
		d.LatentSurfaced += e.Size
		d.ScrubUs += e.Dur
		d.LatentTimesUs = append(d.LatentTimesUs, e.T)
		b.r.LatentSurfaced += e.Size
		b.r.ScrubUs += e.Dur
	case obs.EvCleaningBacklog:
		d := b.get(e.Dev)
		d.Backlogs++
		d.BacklogBlocks += e.Size
		d.DrainUs += e.Dur
		b.r.Backlogs++
		b.r.BacklogBlocks += e.Size
		b.r.DrainUs += e.Dur
	}
}

// Finish returns the report with devices in sorted name order. The report
// is zero-valued for runs with no array or recovery activity.
func (b *ArrayBuilder) Finish() *ArrayReport {
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

// empty reports whether the run had no degraded-mode activity at all.
func (r *ArrayReport) empty() bool {
	return r.Deaths == 0 && r.Degradations == 0 && r.Rebuilds == 0 &&
		r.LatentSurfaced == 0 && r.Backlogs == 0
}

// WriteArray renders the degraded-mode array report.
func WriteArray(w io.Writer, r *ArrayReport, f Format) error {
	switch f {
	case JSON:
		return writeJSON(w, r)
	case SVG:
		return ArrayChart(r).Render(w)
	case CSV:
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"dev", "deaths", "erase_deaths", "degradations",
			"rebuilds", "rebuild_blocks", "rebuild_us", "latent_surfaced", "scrub_us",
			"backlogs", "backlog_blocks", "drain_us"}); err != nil {
			return err
		}
		for _, d := range r.Devices {
			cw.Write([]string{d.Dev, itoa(d.Deaths), itoa(d.EraseDeaths), itoa(d.Degradations),
				itoa(d.Rebuilds), itoa(d.RebuildBlocks), itoa(d.RebuildUs),
				itoa(d.LatentSurfaced), itoa(d.ScrubUs),
				itoa(d.Backlogs), itoa(d.BacklogBlocks), itoa(d.DrainUs)})
		}
		cw.Flush()
		return cw.Error()
	default:
		if r.empty() {
			fmt.Fprintln(w, "no array or recovery events in stream (run storagesim with -array or per-member faults)")
			return nil
		}
		if r.Deaths > 0 {
			fmt.Fprintf(w, "%d device deaths (%d from erase wear-out) at t =", r.Deaths, r.EraseDeaths)
			for _, t := range r.DeathUs {
				fmt.Fprintf(w, " %.1f s", float64(t)/1e6)
			}
			fmt.Fprintln(w)
		}
		if r.Degradations > 0 {
			fmt.Fprintf(w, "%d mirror degradations, %d rebuilds (%d blocks copied, %.1f ms rebuilding)\n",
				r.Degradations, r.Rebuilds, r.RebuildBlocks, float64(r.RebuildUs)/1e3)
		}
		if r.LatentSurfaced > 0 {
			fmt.Fprintf(w, "%d latent faults surfaced on read, %.1f ms scrub penalty\n",
				r.LatentSurfaced, float64(r.ScrubUs)/1e3)
		}
		if r.Backlogs > 0 {
			fmt.Fprintf(w, "%d cleaning jobs carried across power failures (%d live blocks, %.1f ms drained at recovery)\n",
				r.Backlogs, r.BacklogBlocks, float64(r.DrainUs)/1e3)
		}
		if len(r.Devices) > 0 {
			fmt.Fprintf(w, "%-22s %7s %9s %9s %11s %7s %9s %9s\n",
				"dev", "deaths", "rebuilds", "reb ms", "latent", "scrub ms", "backlogs", "drain ms")
			for _, d := range r.Devices {
				name := d.Dev
				if name == "" {
					name = "(unnamed)"
				}
				fmt.Fprintf(w, "%-22s %7d %9d %9.1f %11d %8.1f %9d %9.1f\n",
					name, d.Deaths, d.Rebuilds, float64(d.RebuildUs)/1e3,
					d.LatentSurfaced, float64(d.ScrubUs)/1e3,
					d.Backlogs, float64(d.DrainUs)/1e3)
			}
		}
		return nil
	}
}

// ArrayChart renders cumulative latent faults surfaced over simulated
// time, one line per device, with vertical markers at member deaths and
// rebuild completions — the degraded window reads directly off the gap
// between a die marker and its rebuild marker.
func ArrayChart(r *ArrayReport) *plot.Chart {
	c := &plot.Chart{
		Title:  "Degraded-mode activity over time",
		XLabel: "simulated time (s)",
		YLabel: "cumulative latent faults",
	}
	var peak float64
	for _, d := range r.Devices {
		if len(d.LatentTimesUs) == 0 {
			continue
		}
		name := d.Dev
		if name == "" {
			name = "(unnamed)"
		}
		pts := make([]plot.Point, 0, len(d.LatentTimesUs)+1)
		pts = append(pts, plot.Point{X: 0, Y: 0})
		for i, t := range d.LatentTimesUs {
			pts = append(pts, plot.Point{X: float64(t) / 1e6, Y: float64(i + 1)})
		}
		if n := float64(len(d.LatentTimesUs)); n > peak {
			peak = n
		}
		c.Series = append(c.Series, plot.Series{Name: name, Step: true, Points: pts})
	}
	if peak == 0 {
		peak = 1
	}
	for i, t := range r.DeathUs {
		x := float64(t) / 1e6
		c.Series = append(c.Series, plot.Series{
			Name:   fmt.Sprintf("device.die %d", i+1),
			Points: []plot.Point{{X: x, Y: 0}, {X: x, Y: peak}},
		})
	}
	for i, t := range r.RebuildDoneUs {
		x := float64(t) / 1e6
		c.Series = append(c.Series, plot.Series{
			Name:   fmt.Sprintf("rebuild %d", i+1),
			Points: []plot.Point{{X: x, Y: 0}, {X: x, Y: peak}},
		})
	}
	return c
}

// DiffArray compares degraded-mode totals between two runs.
func DiffArray(a, b *ArrayReport) []DeltaRow {
	return []DeltaRow{
		row("deaths", float64(a.Deaths), float64(b.Deaths)),
		row("erase_deaths", float64(a.EraseDeaths), float64(b.EraseDeaths)),
		row("degradations", float64(a.Degradations), float64(b.Degradations)),
		row("rebuilds", float64(a.Rebuilds), float64(b.Rebuilds)),
		row("rebuild_ms", float64(a.RebuildUs)/1e3, float64(b.RebuildUs)/1e3),
		row("latent_surfaced", float64(a.LatentSurfaced), float64(b.LatentSurfaced)),
		row("scrub_ms", float64(a.ScrubUs)/1e3, float64(b.ScrubUs)/1e3),
		row("backlogs", float64(a.Backlogs), float64(b.Backlogs)),
		row("drain_ms", float64(a.DrainUs)/1e3, float64(b.DrainUs)/1e3),
	}
}
