package obsreport

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/stats"
)

// Format selects a report rendering.
type Format string

// The supported renderings.
const (
	Text Format = "text"
	CSV  Format = "csv"
	JSON Format = "json"
	SVG  Format = "svg"
)

// ParseFormat validates a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case Text, CSV, JSON, SVG:
		return Format(s), nil
	default:
		return "", fmt.Errorf("obsreport: unknown format %q (want text, csv, json, or svg)", s)
	}
}

// writeJSON renders any report as indented JSON with a trailing newline.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteTimelines renders the state-timeline report.
func WriteTimelines(w io.Writer, tls []*DeviceTimeline, f Format) error {
	switch f {
	case JSON:
		return writeJSON(w, tls)
	case SVG:
		return TimelineChart(tls).Render(w)
	case CSV:
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"dev", "sleep_start_us", "sleep_end_us", "sleep_s"}); err != nil {
			return err
		}
		for _, tl := range tls {
			for _, iv := range tl.Sleeps {
				cw.Write([]string{tl.Dev, itoa(iv.StartUs), itoa(iv.EndUs),
					ftoa(float64(iv.DurationUs()) / 1e6)})
			}
		}
		cw.Flush()
		return cw.Error()
	default:
		if len(tls) == 0 {
			fmt.Fprintln(w, "no spin-state events in stream")
			return nil
		}
		for _, tl := range tls {
			name := tl.Dev
			if name == "" {
				name = "(unnamed)"
			}
			fmt.Fprintf(w, "device %s: %d spin-ups, %d spin-downs, %d completed sleeps, %.1f s asleep\n",
				name, tl.SpinUps, tl.SpinDowns, len(tl.Sleeps), float64(tl.TotalSleepUs)/1e6)
			if tl.OpenSleepUs >= 0 {
				fmt.Fprintf(w, "  ended the run asleep since t=%.1f s\n", float64(tl.OpenSleepUs)/1e6)
			}
			if tl.SleepHist.N > 0 {
				fmt.Fprintf(w, "  sleep duration s: p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
					tl.SleepHist.Quantile(0.50), tl.SleepHist.Quantile(0.90),
					tl.SleepHist.Quantile(0.99), tl.SleepHist.Max)
				writeHistText(w, "  ", tl.SleepHist, "s")
			}
		}
		return nil
	}
}

// WriteLatency renders the latency report.
func WriteLatency(w io.Writer, kinds []KindLatency, f Format) error {
	switch f {
	case JSON:
		return writeJSON(w, kinds)
	case SVG:
		return LatencyChart(kinds).Render(w)
	case CSV:
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"kind", "n", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"}); err != nil {
			return err
		}
		for _, k := range kinds {
			cw.Write([]string{k.Kind, itoa(k.N), ftoa(k.MeanMs), ftoa(k.P50Ms),
				ftoa(k.P90Ms), ftoa(k.P99Ms), ftoa(k.MaxMs)})
		}
		cw.Flush()
		return cw.Error()
	default:
		if len(kinds) == 0 {
			fmt.Fprintln(w, "no duration-bearing events in stream")
			return nil
		}
		fmt.Fprintf(w, "%-18s %8s %10s %10s %10s %10s %10s\n",
			"kind", "n", "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms")
		for _, k := range kinds {
			fmt.Fprintf(w, "%-18s %8d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				k.Kind, k.N, k.MeanMs, k.P50Ms, k.P90Ms, k.P99Ms, k.MaxMs)
		}
		return nil
	}
}

// WriteWear renders the wear report.
func WriteWear(w io.Writer, r *WearReport, f Format) error {
	switch f {
	case JSON:
		return writeJSON(w, r)
	case SVG:
		return WearChart(r).Render(w)
	case CSV:
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"segment", "erases"}); err != nil {
			return err
		}
		for _, s := range r.Segments {
			cw.Write([]string{itoa(s.Segment), itoa(s.Erases)})
		}
		cw.Flush()
		return cw.Error()
	default:
		if len(r.Segments) == 0 {
			fmt.Fprintln(w, "no flashcard.erase events in stream")
			return nil
		}
		fmt.Fprintf(w, "%d erases across %d segments: mean %.2f/unit, min %d, max %d (spread %.2f×, σ %.2f)\n",
			r.TotalErases, len(r.Segments), r.MeanErase, r.MinErase, r.MaxErase, r.Spread, r.StdDevErase)
		// Compact per-segment dump, eight segments per row.
		for i := 0; i < len(r.Segments); i += 8 {
			end := i + 8
			if end > len(r.Segments) {
				end = len(r.Segments)
			}
			for _, s := range r.Segments[i:end] {
				fmt.Fprintf(w, "  seg %4d: %-6d", s.Segment, s.Erases)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// WriteEnergy renders the energy-over-time report.
func WriteEnergy(w io.Writer, series []EnergySeries, f Format) error {
	switch f {
	case JSON:
		return writeJSON(w, series)
	case SVG:
		return EnergyChart(series).Render(w)
	case CSV:
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"component", "t_us", "joules"}); err != nil {
			return err
		}
		for _, s := range series {
			for _, p := range s.Points {
				cw.Write([]string{s.Component, itoa(p.TUs), ftoa(p.Joules)})
			}
		}
		cw.Flush()
		return cw.Error()
	default:
		if len(series) == 0 {
			fmt.Fprintln(w, "no sample.energy events in stream (run storagesim with -sample)")
			return nil
		}
		for _, s := range series {
			final := s.Points[len(s.Points)-1]
			fmt.Fprintf(w, "%-8s %4d samples, final %.1f J at t=%.1f s\n",
				s.Component, len(s.Points), final.Joules, float64(final.TUs)/1e6)
		}
		// A shared-axis table: one row per sample time of the densest
		// series.
		fmt.Fprintf(w, "%10s", "t_s")
		for _, s := range series {
			fmt.Fprintf(w, " %10s", s.Component+"_J")
		}
		fmt.Fprintln(w)
		longest := 0
		for i, s := range series {
			if len(s.Points) > len(series[longest].Points) {
				longest = i
			}
		}
		for i, p := range series[longest].Points {
			fmt.Fprintf(w, "%10.1f", float64(p.TUs)/1e6)
			for _, s := range series {
				if i < len(s.Points) {
					fmt.Fprintf(w, " %10.2f", s.Points[i].Joules)
				} else {
					fmt.Fprintf(w, " %10s", "")
				}
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// WriteCleaning renders the cleaning report.
func WriteCleaning(w io.Writer, r *CleaningReport, f Format) error {
	switch f {
	case JSON:
		return writeJSON(w, r)
	case SVG:
		return CleaningChart(r).Render(w)
	case CSV:
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"cleans", "copied_blocks", "stalls", "mean_live_per_clean", "total_clean_s",
			"index_engine", "index_amp"}); err != nil {
			return err
		}
		cw.Write([]string{itoa(r.Cleans), itoa(r.CopiedBlocks), itoa(r.Stalls),
			ftoa(r.MeanLivePerClean), ftoa(float64(r.TotalCleanUs) / 1e6),
			r.IndexEngine, ftoa(r.IndexAmp)})
		cw.Flush()
		return cw.Error()
	default:
		if r.Cleans == 0 && r.IndexEngine == "" {
			fmt.Fprintln(w, "no flashcard.clean events in stream")
			return nil
		}
		if r.Cleans > 0 {
			fmt.Fprintf(w, "%d cleans relocated %d live blocks (%.2f/clean), %d stalled writes, %.1f s cleaning\n",
				r.Cleans, r.CopiedBlocks, r.MeanLivePerClean, r.Stalls, float64(r.TotalCleanUs)/1e6)
			fmt.Fprintf(w, "live blocks per clean: p50=%.1f p90=%.1f p99=%.1f max=%.0f\n",
				r.LivePerClean.Quantile(0.50), r.LivePerClean.Quantile(0.90),
				r.LivePerClean.Quantile(0.99), r.LivePerClean.Max)
			writeHistText(w, "", r.LivePerClean, "blocks")
		}
		if r.IndexEngine != "" {
			fmt.Fprintf(w, "index %s: %.2f× write amplification (%d bytes written / %d logical)\n",
				r.IndexEngine, r.IndexAmp, r.IndexWrittenBytes, r.IndexLogicalBytes)
		}
		return nil
	}
}

// writeHistText prints the non-empty buckets of a histogram as an ASCII
// bar chart.
func writeHistText(w io.Writer, indent string, h *stats.Histogram, unit string) {
	var peak int64
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	if h.Overflow > peak {
		peak = h.Overflow
	}
	if peak == 0 {
		return
	}
	bar := func(c int64) string {
		n := int(c * 40 / peak)
		if n == 0 && c > 0 {
			n = 1
		}
		out := make([]byte, n)
		for i := range out {
			out[i] = '#'
		}
		return string(out)
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		fmt.Fprintf(w, "%s≤ %10.3g %-6s %8d %s\n", indent, h.Bounds[i], unit, c, bar(c))
	}
	if h.Overflow > 0 {
		fmt.Fprintf(w, "%s> %10.3g %-6s %8d %s\n", indent, h.Bounds[len(h.Bounds)-1], unit, h.Overflow, bar(h.Overflow))
	}
}

// WriteTimelineCSV renders a sampler timeline as CSV: one row per sample,
// the union of gauge and counter names as columns (sorted, gauges first),
// so a run's full metric history drops straight into a plotting tool.
func WriteTimelineCSV(w io.Writer, tl *obs.Timeline) error {
	if tl == nil || len(tl.Points) == 0 {
		return fmt.Errorf("obsreport: empty timeline")
	}
	gaugeSet := make(map[string]bool)
	counterSet := make(map[string]bool)
	for _, p := range tl.Points {
		for name := range p.Gauges {
			gaugeSet[name] = true
		}
		for name := range p.Counters {
			counterSet[name] = true
		}
	}
	gauges := sortedNames(gaugeSet)
	counters := sortedNames(counterSet)

	cw := csv.NewWriter(w)
	header := append([]string{"t_s"}, gauges...)
	header = append(header, counters...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, p := range tl.Points {
		row = row[:0]
		row = append(row, ftoa(float64(p.TUs)/1e6))
		for _, name := range gauges {
			row = append(row, ftoa(p.Gauges[name]))
		}
		for _, name := range counters {
			row = append(row, itoa(p.Counters[name]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func itoa[T ~int64](v T) string { return strconv.FormatInt(int64(v), 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
