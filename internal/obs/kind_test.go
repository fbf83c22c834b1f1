package obs

import (
	"strings"
	"testing"
)

// TestKindRoundTrip maps every Kind through String and back, and pins the
// edges: the zero Kind is the empty name, an unknown name is KindOther,
// and a value past the table still prints.
func TestKindRoundTrip(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if got := ParseKind(name); got != k {
			t.Errorf("ParseKind(%q) = %d, want %d", name, got, k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if Kind(0).String() != "" || ParseKind("") != 0 {
		t.Error("the zero Kind is not the empty name")
	}
	// Unknown names: one of no wire name's length, one a byte past the
	// longest wire name and one far past it (both past the length table),
	// and one of a known length that matches no name of that length.
	longest := 0
	for _, name := range kindNames {
		longest = max(longest, len(name))
	}
	for _, name := range []string{"no.such.kind", strings.Repeat("k", longest+1), strings.Repeat("k", 100), "cache.hiT"} {
		if got := ParseKind(name); got != KindOther {
			t.Errorf("unknown name %q parsed as %v, want KindOther", name, got)
		}
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("Kind(200).String() = %q", got)
	}
}

// TestParseKindNoAlloc: the decoder's fast path converts each kind name
// from bytes as it calls ParseKind, so the pair must not allocate.
func TestParseKindNoAlloc(t *testing.T) {
	for _, name := range [][]byte{[]byte("flashcard.erase"), []byte("some.future.kind")} {
		if n := testing.AllocsPerRun(100, func() { _ = ParseKind(string(name)) }); n != 0 {
			t.Errorf("ParseKind(%q) allocated %.0f times", name, n)
		}
	}
}

func TestKindSet(t *testing.T) {
	s := Kinds(EvCardClean, EvCardStall)
	for k := Kind(0); k < 255; k++ {
		if want := k == EvCardClean || k == EvCardStall; s.Has(k) != want {
			t.Errorf("Has(%v) = %v", k, !want)
		}
		if want := k < numKinds; AllKinds.Has(k) != want {
			t.Errorf("AllKinds.Has(%v) = %v", k, !want)
		}
	}
}

// eventLog is a tracer that keeps every event it is handed and declares no
// kind mask.
type eventLog struct{ events []Event }

func (l *eventLog) Emit(e Event) { l.events = append(l.events, e) }

// maskedLog is an eventLog that declares a kind mask but does not filter
// by it, so it sees whatever its scope or tee delivers.
type maskedLog struct {
	*eventLog
	kinds KindSet
}

func (m maskedLog) Kinds() KindSet { return m.kinds }

// TestScopeKindMask: a scope caches its tracer's mask (every kind for a
// tracer without one), and Emit never delivers a kind outside it.
func TestScopeKindMask(t *testing.T) {
	all := &eventLog{}
	if sc := NewScope(nil, all); !sc.Wants(EvCacheHit) || !sc.Wants(KindOther) {
		t.Error("a tracer without a mask must read every kind")
	}
	masked := maskedLog{&eventLog{}, Kinds(EvCardErase)}
	sc := NewScope(nil, masked)
	if sc.Wants(EvCacheHit) || !sc.Wants(EvCardErase) {
		t.Error("scope does not follow the tracer's mask")
	}
	sc.Emit(Event{T: 1, Kind: EvCacheHit})
	sc.Emit(Event{T: 2, Kind: EvCardErase})
	if ev := masked.events; len(ev) != 1 || ev[0].Kind != EvCardErase {
		t.Errorf("masked tracer saw %+v", ev)
	}
	if NewScope(NewRegistry(), nil).Wants(EvCardErase) {
		t.Error("a scope without a tracer wants events")
	}
}

// TestTeeKindMask: a tee reads the union of its members' kinds and hands
// each member only the kinds it declared.
func TestTeeKindMask(t *testing.T) {
	clean := NewCollector(Kinds(EvCardClean))
	erase := maskedLog{&eventLog{}, Kinds(EvCardErase)}
	tr := Tee(clean, erase)
	if got, want := tr.(KindFilter).Kinds(), Kinds(EvCardClean, EvCardErase); got != want {
		t.Errorf("tee kinds %b, want %b", got, want)
	}
	sc := NewScope(nil, tr)
	for _, k := range []Kind{EvCacheHit, EvCardClean, EvCardErase} {
		sc.Emit(Event{Kind: k})
	}
	if ev := clean.Events(); len(ev) != 1 || ev[0].Kind != EvCardClean {
		t.Errorf("clean collector saw %+v", ev)
	}
	if ev := erase.events; len(ev) != 1 || ev[0].Kind != EvCardErase {
		t.Errorf("erase log saw %+v", ev)
	}
	if _, ok := Tee(clean, &eventLog{}).(KindFilter); !ok || !NewScope(nil, Tee(clean, &eventLog{})).Wants(EvCacheHit) {
		t.Error("a tee with an unmasked member must read every kind")
	}
}
