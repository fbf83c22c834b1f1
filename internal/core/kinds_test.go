package core

import (
	"bytes"
	"testing"

	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
)

// everyKind hands a FigureSet every event kind: it hides the set's
// KindFilter, so the scope builds and delivers the kinds no figure reads.
type everyKind struct {
	figs    *obsreport.FigureSet
	outside int // events of kinds outside the set's mask
}

func (e *everyKind) Emit(ev obs.Event) {
	if !e.figs.Kinds().Has(ev.Kind) {
		e.outside++
	}
	e.figs.Observe(ev)
}

// TestFigureMaskRendersSameCharts replays each stack shape (sampled), the
// fault presets (injected faults, retries, power failures) and a mirror
// whose member dies with latent faults, twice each: once into a FigureSet
// through its masked scope and once into one that receives every kind.
// Every figure must render byte-identically, so the mask drops only kinds
// no figure reads.
func TestFigureMaskRendersSameCharts(t *testing.T) {
	type run struct {
		name string
		cfg  Config
	}
	var runs []run
	for _, r := range stackRows(t) {
		runs = append(runs, run{r.name, r.cfg})
	}
	for _, p := range faultPresets(t) {
		runs = append(runs, run{p.name, p.cfg()})
	}
	dying := arrayConfig(t, "mirror:2xflashcard")
	dur := int64(dying.Trace.Duration())
	dying.MemberFaults = fault.PlanSet{"m0": {DieAtUs: dur / 3, LatentErrorRate: 0.1}, "m1": {LatentErrorRate: 0.1}}
	dying.Faults = &fault.Plan{PowerFailAtUs: []int64{dur / 2}, CarryCleaningBacklog: true}
	runs = append(runs, run{"mirror-death", dying})

	outside := 0
	// covered counts what the masked sets saw, so the comparison is known
	// to cover faults, deaths, latent faults and energy samples.
	covered := map[string]int64{}
	for _, r := range runs {
		masked := obsreport.NewFigureSet()
		cfg := r.cfg
		cfg.Scope = obs.NewScope(obs.NewRegistry(), masked)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		all := &everyKind{figs: obsreport.NewFigureSet()}
		cfg.Scope = obs.NewScope(obs.NewRegistry(), all)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		outside += all.outside
		fr, ar := masked.Faults.Finish(), masked.Array.Finish()
		covered["injected"] += fr.Injected
		covered["retries"] += fr.Retries
		covered["power failures"] += fr.PowerFailures
		covered["deaths"] += ar.Deaths
		covered["latent"] += ar.LatentSurfaced
		covered["energy series"] += int64(len(masked.Energy.Finish()))
		for _, kind := range obsreport.FigureKinds() {
			if got, want := renderChart(t, masked, kind), renderChart(t, all.figs, kind); !bytes.Equal(got, want) {
				t.Errorf("%s: %s figure differs under the kind mask", r.name, kind)
			}
		}
	}
	for what, n := range covered {
		if n == 0 {
			t.Errorf("no run produced %s", what)
		}
	}
	if outside == 0 {
		t.Error("no event outside the mask reached the unmasked sets; the comparison proves nothing")
	}
}

func renderChart(t *testing.T, figs *obsreport.FigureSet, kind string) []byte {
	t.Helper()
	c, err := figs.Chart(kind)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
