package obsreport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"mobilestorage/internal/obs"
)

// maskedBuilder is one report builder seen through its kind mask.
type maskedBuilder struct {
	name string
	new  func() (obs.KindFilter, Reporter, func() any)
}

// maskedBuilders lists every builder and the FigureSet with a constructor
// that returns the mask, the observer and the finished report.
func maskedBuilders() []maskedBuilder {
	return []maskedBuilder{
		{name: "timeline", new: func() (obs.KindFilter, Reporter, func() any) {
			b := NewTimelineBuilder()
			return b, b, func() any { return b.Finish() }
		}},
		{name: "latency", new: func() (obs.KindFilter, Reporter, func() any) {
			b := NewLatencyBuilder()
			return b, b, func() any { return b.Finish() }
		}},
		{name: "wear", new: func() (obs.KindFilter, Reporter, func() any) {
			b := NewWearBuilder()
			return b, b, func() any { return b.Finish() }
		}},
		{name: "energy", new: func() (obs.KindFilter, Reporter, func() any) {
			b := NewEnergyBuilder()
			return b, b, func() any { return b.Finish() }
		}},
		{name: "cleaning", new: func() (obs.KindFilter, Reporter, func() any) {
			b := NewCleaningBuilder()
			return b, b, func() any { return b.Finish() }
		}},
		{name: "faults", new: func() (obs.KindFilter, Reporter, func() any) {
			b := NewFaultsBuilder()
			return b, b, func() any { return b.Finish() }
		}},
		{name: "array", new: func() (obs.KindFilter, Reporter, func() any) {
			b := NewArrayBuilder()
			return b, b, func() any { return b.Finish() }
		}},
		{name: "figureset", new: func() (obs.KindFilter, Reporter, func() any) {
			s := NewFigureSet()
			return s, s, func() any {
				return []any{s.Timeline.Finish(), s.Latency.Finish(), s.Wear.Finish(), s.Energy.Finish(),
					s.Cleaning.Finish(), s.Faults.Finish(), s.Array.Finish()}
			}
		}},
	}
}

// TestKindMasksMatchObserve pins each builder's Kinds() to its Observe
// switch. Outside the mask, an event with every payload slot set leaves
// Finish() deep-equal to a builder that never saw it: a scope over the
// builder drops those kinds, so reading one would silently lose data.
// Inside the mask, the same event changes Finish(): the mask claims no
// kind the builder ignores.
func TestKindMasksMatchObserve(t *testing.T) {
	for _, mb := range maskedBuilders() {
		for k := 0; k < 256; k++ {
			kind := obs.Kind(k)
			filter, seen, finishSeen := mb.new()
			_, _, finishFresh := mb.new()
			seen.Observe(obs.Event{T: 1_234_567, Kind: kind, Dev: "dev", Addr: 3, Size: 5, Dur: 7_000})
			changed := !reflect.DeepEqual(finishSeen(), finishFresh())
			if in := filter.Kinds().Has(kind); changed != in {
				t.Errorf("%s: kind %v in mask %v, but observing it changed the report: %v", mb.name, kind, in, changed)
			}
		}
	}
}

// TestFigureSetKindsIsUnion: the set's mask is exactly the union of its
// builders' masks, and none of them reads the per-request kinds.
func TestFigureSetKindsIsUnion(t *testing.T) {
	var union obs.KindSet
	for _, mb := range maskedBuilders() {
		if mb.name != "figureset" {
			f, _, _ := mb.new()
			union |= f.Kinds()
		}
	}
	if got := NewFigureSet().Kinds(); got != union {
		t.Errorf("FigureSet.Kinds() = %b, union of builders %b", got, union)
	}
	for _, k := range []obs.Kind{obs.EvCacheHit, obs.EvCacheMiss, obs.EvFlashDiskErase, obs.EvCardCopy} {
		if union.Has(k) {
			t.Errorf("a figure reads %v", k)
		}
	}
}

// wireNames is the NDJSON name of every kind, as the format has always
// spelled it.
var wireNames = map[obs.Kind]string{
	obs.EvDiskSpinUp: "disk.spinup", obs.EvDiskSpinDown: "disk.spindown",
	obs.EvSRAMFlush: "sram.flush", obs.EvSRAMStall: "sram.stall",
	obs.EvFlashDiskWrite: "flashdisk.write", obs.EvFlashDiskErase: "flashdisk.erase",
	obs.EvCardClean: "flashcard.clean", obs.EvCardErase: "flashcard.erase",
	obs.EvCardCopy: "flashcard.copy", obs.EvCardStall: "flashcard.stall",
	obs.EvCacheHit: "cache.hit", obs.EvCacheMiss: "cache.miss",
	obs.EvHybridDestage: "hybrid.destage", obs.EvEnergySample: "sample.energy",
	obs.EvIndexWriteAmp: "index.writeamp", obs.EvFaultInjected: "fault.injected",
	obs.EvRetryAttempt: "retry.attempt", obs.EvRemap: "remap", obs.EvReclaim: "reclaim",
	obs.EvPowerFail: "power.fail", obs.EvRecoveryReplayed: "recovery.replayed",
	obs.EvDeviceDie: "device.die", obs.EvArrayDegraded: "array.degraded",
	obs.EvArrayRebuild: "array.rebuild", obs.EvFaultLatent: "fault.latent",
	obs.EvCleaningBacklog: "cleaning.backlog", obs.KindOther: "other",
}

// TestNDJSONKindWireFormat writes one event of every kind through the
// sink: the line keeps the NDJSON layout and wire name the format has
// always had, decodes back to an equal Event on both decoder paths, and
// the fast path allocates nothing once the device name is interned.
func TestNDJSONKindWireFormat(t *testing.T) {
	kinds := 0
	for k := obs.Kind(1); obs.AllKinds.Has(k); k++ {
		kinds++
		name, ok := wireNames[k]
		if !ok {
			t.Errorf("kind %d (%v) has no pinned wire name", k, k)
			continue
		}
		if k.String() != name || obs.ParseKind(name) != k {
			t.Errorf("kind %d: String %q, ParseKind(%q) = %v", k, k.String(), name, obs.ParseKind(name))
		}
		e := obs.Event{T: 42, Kind: k, Dev: "intel", Addr: -3, Size: 5, Dur: 7}
		var buf bytes.Buffer
		sink := obs.NewNDJSONSink(&buf)
		sink.Emit(e)
		sink.Emit(obs.Event{T: 43, Kind: k})
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`{"t_us":42,"kind":%q,"dev":"intel","addr":-3,"size":5,"dur_us":7}`+"\n"+
			`{"t_us":43,"kind":%q}`+"\n", name, name)
		if buf.String() != want {
			t.Errorf("kind %v:\n got %q\nwant %q", k, buf.String(), want)
		}
		for _, noFast := range []bool{false, true} {
			got, _, err := readAllMode(buf.Bytes(), noFast)
			if err != nil || len(got) != 2 || got[0] != e || got[1] != (obs.Event{T: 43, Kind: k}) {
				t.Errorf("kind %v (noFast %v): decoded %+v, %v", k, noFast, got, err)
			}
		}
		line := bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[0]
		d := &Decoder{}
		if n := testing.AllocsPerRun(50, func() { d.scanEvent(line) }); n != 0 {
			t.Errorf("kind %v: fast scan allocated %.0f times per line", k, n)
		}
	}
	if kinds != len(wireNames) {
		t.Errorf("%d kinds, %d pinned wire names", kinds, len(wireNames))
	}
}
