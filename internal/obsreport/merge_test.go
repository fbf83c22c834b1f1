package obsreport

import (
	"reflect"
	"strings"
	"testing"

	"mobilestorage/internal/obs"
)

func TestHistMergeCounts(t *testing.T) {
	a := latencyLayout.NewHistogram()
	b := latencyLayout.NewHistogram()
	for _, v := range []float64{0.5, 2, 40} {
		a.Add(v)
	}
	for _, v := range []float64{0.1, 2, 1e9} { // 1e9 overflows the top bound
		b.Add(v)
	}
	a.Merge(b)
	if a.N != 6 {
		t.Errorf("N = %d, want 6", a.N)
	}
	if a.Overflow != 1 {
		t.Errorf("Overflow = %d, want 1", a.Overflow)
	}
	if want := 0.5 + 2 + 40 + 0.1 + 2 + 1e9; a.Sum != want {
		t.Errorf("Sum = %g, want %g", a.Sum, want)
	}
	if a.Min != 0.1 || a.Max != 1e9 {
		t.Errorf("extremes [%g, %g], want [0.1, 1e9]", a.Min, a.Max)
	}
	var total int64
	for _, c := range a.Counts {
		total += c
	}
	if total+a.Overflow != a.N {
		t.Errorf("bucket total %d + overflow %d != N %d", total, a.Overflow, a.N)
	}
}

func TestHistMergeIntoEmptyCopies(t *testing.T) {
	a := latencyLayout.NewHistogram()
	b := latencyLayout.NewHistogram()
	b.Add(3)
	b.Add(7)
	a.Merge(b)
	if a.N != 2 || a.Min != 3 || a.Max != 7 {
		t.Errorf("empty.Merge(b): N=%d Min=%g Max=%g", a.N, a.Min, a.Max)
	}
	// And the other direction: merging an empty histogram is a no-op.
	before := *a
	a.Merge(latencyLayout.NewHistogram())
	if a.N != before.N || a.Sum != before.Sum {
		t.Error("merging an empty histogram changed state")
	}
}

// A histogram whose samples are legitimately all zero still has exact
// extremes; merging it must keep the other side's Max and lower Min to 0
// (regression: Max > 0 once served as the "extremes known" sentinel, so an
// all-zero side lost them).
func TestHistMergeAllZeroSamplesKeepsExtremes(t *testing.T) {
	zero := latencyLayout.NewHistogram()
	zero.Add(0)
	zero.Add(0)
	if q := zero.Quantile(0.99); q != 0 {
		t.Errorf("all-zero p99 = %g, want exactly 0", q)
	}

	known := latencyLayout.NewHistogram()
	known.Add(5)
	known.Merge(zero)
	if known.Min != 0 || known.Max != 5 {
		t.Errorf("extremes [%g, %g], want [0, 5]", known.Min, known.Max)
	}

	// And the symmetric direction: folding known samples into the zero side.
	zero.Merge(known)
	if zero.Min != 0 || zero.Max != 5 {
		t.Errorf("reverse merge: extremes [%g, %g], want [0, 5]", zero.Min, zero.Max)
	}
}

func TestHistMergeLayoutMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging different bucket layouts did not panic")
		}
	}()
	latencyLayout.NewHistogram().Merge(sleepLayout.NewHistogram())
}

// mergeStream is a deterministic event mix covering every builder: spin
// transitions, latency-kind durations, erases, cleans, and faults.
func mergeStream(n int) []obs.Event {
	var evs []obs.Event
	for i := 0; i < n; i++ {
		tUs := int64(i+1) * 500_000
		switch i % 8 {
		case 0:
			evs = append(evs, obs.Event{T: tUs, Kind: obs.EvDiskSpinDown, Dev: "disk"})
		case 1:
			evs = append(evs, obs.Event{T: tUs, Kind: obs.EvDiskSpinUp, Dev: "disk",
				Dur: int64(100_000 * (i%40 + 1))})
		case 2:
			evs = append(evs, obs.Event{T: tUs, Kind: obs.EvSRAMFlush, Dev: "sram",
				Size: 8192, Dur: int64(1000 + i%5000)})
		case 3:
			evs = append(evs, obs.Event{T: tUs, Kind: obs.EvCardErase, Dev: "fc",
				Addr: int64(i % 16), Size: int64(i/16 + 1)})
		case 4:
			evs = append(evs, obs.Event{T: tUs, Kind: obs.EvCardClean, Dev: "fc",
				Addr: int64(i % 16), Size: int64(i % 30), Dur: 40_000})
		case 5:
			evs = append(evs, obs.Event{T: tUs, Kind: obs.EvFaultInjected, Dev: "fc",
				Addr: 1, Size: int64(i % 3)})
		case 6:
			evs = append(evs, obs.Event{T: tUs, Kind: obs.EvRetryAttempt, Dev: "fc",
				Dur: int64(200 + i%900)})
		default:
			evs = append(evs, obs.Event{T: tUs, Kind: obs.EvCardStall, Dev: "fc",
				Dur: int64(10_000 + i%777)})
		}
	}
	return evs
}

// mergeFleetBuilders folds src's timeline, wear and cleaning builders into
// dst's, as internal/fleet folds each run into its aggregate (its
// mergedFigures lists the builders a fleet job merges).
func mergeFleetBuilders(dst, src *FigureSet) {
	dst.Timeline.Merge(src.Timeline)
	dst.Wear.Merge(src.Wear)
	dst.Cleaning.Merge(src.Cleaning)
}

// Splitting a stream across two figure sets and merging their timeline and
// cleaning builders must equal one builder observing everything, for every
// field a merge retains.
func TestFigureSetMergeMatchesSequential(t *testing.T) {
	events := mergeStream(400)

	whole := NewFigureSet()
	for _, e := range events {
		whole.Observe(e)
	}
	partA, partB := NewFigureSet(), NewFigureSet()
	for i, e := range events {
		if i < len(events)/3 {
			partA.Observe(e)
		} else {
			partB.Observe(e)
		}
	}
	merged := NewFigureSet()
	mergeFleetBuilders(merged, partA)
	mergeFleetBuilders(merged, partB)

	// Timeline: merged retains spin counts, sleep totals, and the
	// distribution — not the interval lists.
	wTL, mTL := whole.Timeline.Finish(), merged.Timeline.Finish()
	if len(wTL) != len(mTL) {
		t.Fatalf("timeline device counts differ: %d vs %d", len(wTL), len(mTL))
	}
	for i := range wTL {
		w, m := wTL[i], mTL[i]
		if w.Dev != m.Dev || w.SpinUps != m.SpinUps || w.SpinDowns != m.SpinDowns ||
			w.TotalSleepUs != m.TotalSleepUs {
			t.Errorf("timeline[%s]: merged %+v != whole %+v", w.Dev, m, w)
		}
		if !reflect.DeepEqual(w.SleepHist, m.SleepHist) {
			t.Errorf("timeline[%s]: sleep hist differs", w.Dev)
		}
		if len(m.Sleeps) != 0 {
			t.Errorf("timeline[%s]: merged builder retained %d sleep intervals", m.Dev, len(m.Sleeps))
		}
	}

	if w, m := whole.Cleaning.Finish(), merged.Cleaning.Finish(); !reflect.DeepEqual(w, m) {
		t.Errorf("cleaning reports differ:\nwhole  %+v\nmerged %+v", w, m)
	}
}

// Wear events carry cumulative per-segment counts, so WearBuilder.Merge sums
// FINAL counts — the right semantics for independent runs (replica wear
// stacks), not for splitting one run's stream. Feed it two whole runs.
func TestWearMergeStacksRuns(t *testing.T) {
	runA, runB := NewWearBuilder(), NewWearBuilder()
	for i := 1; i <= 5; i++ { // run A: segment 0 erased 5 times, segment 1 thrice
		runA.Observe(obs.Event{Kind: obs.EvCardErase, Addr: 0, Size: int64(i)})
	}
	for i := 1; i <= 3; i++ {
		runA.Observe(obs.Event{Kind: obs.EvCardErase, Addr: 1, Size: int64(i)})
		runB.Observe(obs.Event{Kind: obs.EvCardErase, Addr: 0, Size: int64(i)})
	}
	m := NewWearBuilder()
	m.Merge(runA)
	m.Merge(runB)
	r := m.Finish()
	if len(r.Segments) != 2 {
		t.Fatalf("segments: %+v", r.Segments)
	}
	if r.Segments[0].Erases != 8 { // 5 from run A + 3 from run B
		t.Errorf("segment 0 erases = %d, want 8", r.Segments[0].Erases)
	}
	if r.Segments[1].Erases != 3 {
		t.Errorf("segment 1 erases = %d, want 3", r.Segments[1].Erases)
	}
	if r.TotalErases != 11 {
		t.Errorf("total erases = %d, want 11", r.TotalErases)
	}
}

// Splitting mid-sleep must not lose the interval: spin-up events carry the
// sleep duration, so the second shard reconstructs it alone.
func TestTimelineMergeSplitMidSleep(t *testing.T) {
	down := obs.Event{T: 1_000_000, Kind: obs.EvDiskSpinDown, Dev: "d"}
	up := obs.Event{T: 4_000_000, Kind: obs.EvDiskSpinUp, Dev: "d", Dur: 3_000_000}

	a, b := NewTimelineBuilder(), NewTimelineBuilder()
	a.Observe(down)
	b.Observe(up)
	m := NewTimelineBuilder()
	m.Merge(a)
	m.Merge(b)

	tl := m.Finish()[0]
	if tl.SpinDowns != 1 || tl.SpinUps != 1 || tl.TotalSleepUs != 3_000_000 {
		t.Errorf("split-sleep merge: %+v", tl)
	}
	if tl.SleepHist.N != 1 {
		t.Errorf("sleep hist N = %d, want 1", tl.SleepHist.N)
	}
}

func TestFigureKindsAndUnknownKindError(t *testing.T) {
	kinds := FigureKinds()
	if len(kinds) != 7 {
		t.Fatalf("FigureKinds() = %v, want 7 kinds", kinds)
	}
	err := UnknownKindError("bogus")
	for _, k := range kinds {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("UnknownKindError does not list %q: %v", k, err)
		}
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("UnknownKindError does not echo the bad kind: %v", err)
	}
}

// Every kind must render a chart from both a live set and a merged set.
func TestFigureSetCharts(t *testing.T) {
	live := NewFigureSet()
	for _, e := range mergeStream(100) {
		live.Observe(e)
	}
	merged := NewFigureSet()
	mergeFleetBuilders(merged, live)

	for _, set := range []*FigureSet{live, merged} {
		for _, kind := range FigureKinds() {
			c, err := set.Chart(kind)
			if err != nil {
				t.Fatalf("Chart(%q): %v", kind, err)
			}
			if c == nil {
				t.Fatalf("Chart(%q) returned nil", kind)
			}
		}
	}
	if _, err := live.Chart("bogus"); err == nil {
		t.Error("Chart(bogus) did not error")
	}
}

// SleepChart renders merged timelines as distributions with one series per
// device that actually slept.
func TestSleepChart(t *testing.T) {
	b := NewTimelineBuilder()
	b.Observe(obs.Event{T: 2_000_000, Kind: obs.EvDiskSpinUp, Dev: "d0", Dur: 1_500_000})
	b.Observe(obs.Event{T: 9_000_000, Kind: obs.EvDiskSpinUp, Dev: "d0", Dur: 4_000_000})
	// d1 never sleeps: spin-down without a spin-up leaves its hist empty.
	b.Observe(obs.Event{T: 1_000_000, Kind: obs.EvDiskSpinDown, Dev: "d1"})

	c := SleepChart(b.Finish())
	if len(c.Series) != 1 {
		t.Fatalf("%d series, want 1 (only d0 slept)", len(c.Series))
	}
	if c.Series[0].Name != "d0" || !c.Series[0].Step {
		t.Errorf("series %+v, want step series named d0", c.Series[0])
	}
	if !c.LogX {
		t.Error("sleep chart should use a log X axis")
	}
}

// BenchmarkFleetAggregate measures the per-shard merge cost of fleet
// aggregation: folding one populated run's timeline, wear and cleaning
// builders plus its two latency histograms into fleet-level ones — the
// obsreport share of the work internal/fleet does per completed run.
func BenchmarkFleetAggregate(b *testing.B) {
	run := NewFigureSet()
	for _, e := range mergeStream(1000) {
		run.Observe(e)
	}
	readH := latencyLayout.NewHistogram()
	writeH := latencyLayout.NewHistogram()
	for i := 0; i < 200; i++ {
		readH.Add(float64(i%50) + 0.5)
		writeH.Add(float64(i%80) + 0.25)
	}
	fleet := NewFigureSet()
	fleetRead := latencyLayout.NewHistogram()
	fleetWrite := latencyLayout.NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeFleetBuilders(fleet, run)
		fleetRead.Merge(readH)
		fleetWrite.Merge(writeH)
	}
}
