package obsreport

// SVG figure builders: each report maps onto a plot.Chart so the paper's
// curves render without external tooling — energy over time (Fig. 2–3),
// latency and cleaning distributions (Fig. 4–5), wear histograms, and
// spin-state timelines. Chart construction is deterministic: series follow
// the reports' already-sorted orders, so rendering inherits the builders'
// byte-reproducibility.

import (
	"fmt"

	"mobilestorage/internal/plot"
	"mobilestorage/internal/stats"
)

// TimelineChart renders per-device spin state over time: 1 = spinning,
// 0 = asleep. Devices are drawn as overlaid square waves reconstructed
// from the completed sleep intervals (plus a trailing open sleep, if the
// device ended the run spun down).
func TimelineChart(tls []*DeviceTimeline) *plot.Chart {
	c := &plot.Chart{
		Title:  "Spin state over time",
		XLabel: "simulated time (s)",
		YLabel: "state (1 = spinning)",
	}
	for _, tl := range tls {
		name := tl.Dev
		if name == "" {
			name = "(unnamed)"
		}
		var pts []plot.Point
		cursor := 0.0 // the device starts the run spinning at t=0
		for _, iv := range tl.Sleeps {
			s, e := float64(iv.StartUs)/1e6, float64(iv.EndUs)/1e6
			pts = append(pts, plot.Point{X: cursor, Y: 1}, plot.Point{X: s, Y: 1},
				plot.Point{X: s, Y: 0}, plot.Point{X: e, Y: 0})
			cursor = e
		}
		if tl.OpenSleepUs >= 0 {
			s := float64(tl.OpenSleepUs) / 1e6
			pts = append(pts, plot.Point{X: cursor, Y: 1}, plot.Point{X: s, Y: 1},
				plot.Point{X: s, Y: 0})
		} else if len(pts) > 0 {
			last := pts[len(pts)-1]
			pts = append(pts, plot.Point{X: last.X, Y: 1})
		}
		c.Series = append(c.Series, plot.Series{Name: name, Points: pts})
	}
	return c
}

// LatencyChart renders each kind's duration histogram as a step outline
// over log-spaced bucket bounds.
func LatencyChart(kinds []KindLatency) *plot.Chart {
	c := &plot.Chart{
		Title:  "Event duration distributions",
		XLabel: "duration (ms)",
		YLabel: "events per bucket",
		LogX:   true,
	}
	for _, k := range kinds {
		c.Series = append(c.Series, plot.Series{Name: k.Kind, Step: true, Points: HistPoints(k.Hist)})
	}
	return c
}

// WearChart renders per-segment erase counts, with a flat mean reference
// line (perfect wear leveling would put every segment on it).
func WearChart(r *WearReport) *plot.Chart {
	c := &plot.Chart{
		Title:  "Flash wear by segment",
		XLabel: "segment",
		YLabel: "erases",
	}
	if len(r.Segments) == 0 {
		return c
	}
	var pts []plot.Point
	for _, s := range r.Segments {
		pts = append(pts, plot.Point{X: float64(s.Segment), Y: float64(s.Erases)})
	}
	first, last := pts[0].X, pts[len(pts)-1].X
	c.Series = append(c.Series,
		plot.Series{Name: "erases", Step: true, Points: pts},
		plot.Series{Name: fmt.Sprintf("mean %.1f", r.MeanErase), Points: []plot.Point{
			{X: first, Y: r.MeanErase}, {X: last, Y: r.MeanErase},
		}},
	)
	return c
}

// EnergyChart renders cumulative energy over simulated time, one line per
// component — the Figure 2–3 reproduction.
func EnergyChart(series []EnergySeries) *plot.Chart {
	c := &plot.Chart{
		Title:  "Cumulative energy",
		XLabel: "simulated time (s)",
		YLabel: "energy (J)",
	}
	for _, s := range series {
		var pts []plot.Point
		for _, p := range s.Points {
			pts = append(pts, plot.Point{X: float64(p.TUs) / 1e6, Y: p.Joules})
		}
		c.Series = append(c.Series, plot.Series{Name: s.Component, Points: pts})
	}
	return c
}

// CleaningChart renders the live-blocks-per-clean distribution — the
// cleaning-efficiency curve behind the §5.3 overhead analysis.
func CleaningChart(r *CleaningReport) *plot.Chart {
	c := &plot.Chart{
		Title:  "Cleaning efficiency",
		XLabel: "live blocks copied per clean",
		YLabel: "cleans per bucket",
		LogX:   true,
	}
	if r.Cleans > 0 {
		c.Series = append(c.Series, plot.Series{Name: "cleans", Step: true, Points: HistPoints(r.LivePerClean)})
	}
	return c
}

// HistPoints converts a histogram to step-outline points over its bucket
// upper bounds, trimming the all-zero tail (but keeping interior zeros so
// gaps in the distribution stay visible). The overflow count, if any,
// lands one bucket ratio past the last bound.
func HistPoints(h *stats.Histogram) []plot.Point {
	if h == nil {
		return nil
	}
	last := -1
	for i, c := range h.Counts {
		if c > 0 {
			last = i
		}
	}
	var pts []plot.Point
	for i := 0; i <= last; i++ {
		pts = append(pts, plot.Point{X: h.Bounds[i], Y: float64(h.Counts[i])})
	}
	if h.Overflow > 0 && len(h.Bounds) >= 2 {
		n := len(h.Bounds)
		ratio := h.Bounds[n-1] / h.Bounds[n-2]
		pts = append(pts, plot.Point{X: h.Bounds[n-1] * ratio, Y: float64(h.Overflow)})
	}
	return pts
}
