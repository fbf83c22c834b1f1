package energy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mobilestorage/internal/units"
)

// stateNamesByHand pairs each State with the name the frozen refMeter keys
// it by. It is written out here rather than read from State.String, so a
// State that is misnumbered or misnamed shows up as a difference.
var stateNamesByHand = [...]struct {
	s    State
	name refState
}{
	{StateActive, "active"},
	{StateCleaner, "cleaner"},
	{StateErase, "erase"},
	{StateIdle, "idle"},
	{StateSleep, "sleep"},
	{StateSpinUp, "spinup"},
	{StateStandby, "standby"},
}

// meterStream reads a differential stream's choices from a byte string.
// Past the end every byte reads as zero, so any input is a valid stream.
type meterStream struct {
	data []byte
	pos  int
}

func (s *meterStream) more() bool { return s.pos < len(s.data) }

func (s *meterStream) next() uint64 {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return uint64(s.data[s.pos-1])
}

// pick returns a choice in [0, n).
func (s *meterStream) pick(n int) int { return int(s.next() % uint64(n)) }

// bytes reads n bytes as a little-endian integer.
func (s *meterStream) bytes(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= s.next() << (8 * i)
	}
	return v
}

// watts is mostly a device-like power from 0 to 64 W, sometimes exactly 0,
// sometimes negative (which must panic), and sometimes any float64 at all:
// NaN, ±Inf, subnormals.
func (s *meterStream) watts() float64 {
	switch s.pick(8) {
	case 0:
		return 0
	case 1:
		return -float64(s.next()+1) / 8
	case 2:
		return math.Float64frombits(s.bytes(8))
	default:
		return float64(s.bytes(2)) / 1024
	}
}

// duration is mostly up to about 71 minutes of µs, sometimes exactly 0,
// sometimes negative (which must panic), and sometimes any int64 at all.
func (s *meterStream) duration() units.Time {
	switch s.pick(8) {
	case 0:
		return 0
	case 1:
		return -units.Time(s.next() + 1)
	case 2:
		return units.Time(s.bytes(8))
	default:
		return units.Time(s.bytes(4))
	}
}

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// runMeterDifferential drives two Meters and two refMeters with the same
// accruals and merges, read from data, and requires them to agree after
// every step.
func runMeterDifferential(t testing.TB, data []byte) {
	t.Helper()
	var got [2]*Meter
	var want [2]*refMeter
	for k := range got {
		got[k], want[k] = NewMeter(), newRefMeter()
	}
	s := &meterStream{data: data}
	for step := 0; s.more(); step++ {
		k := s.pick(len(got))
		if s.pick(4) == 0 {
			j := s.pick(len(got)) // may be k: a meter merged into itself
			got[k].Merge(got[j])
			want[k].Merge(want[j])
		} else {
			st := stateNamesByHand[s.pick(len(stateNamesByHand))]
			w, d := s.watts(), s.duration()
			// The meter panics with an error and the reference with a
			// string, so the two are compared by their text.
			gp := fmt.Sprint(panicOf(func() { got[k].Accrue(st.s, w, d) }))
			wp := fmt.Sprint(panicOf(func() { want[k].Accrue(st.name, w, d) }))
			if gp != wp {
				t.Fatalf("step %d: Accrue(%s, %g, %d) panicked with %v, reference %v", step, st.name, w, d, gp, wp)
			}
		}
		compareMeters(t, step, got[k], want[k])
	}
}

func compareMeters(t testing.TB, step int, got *Meter, want *refMeter) {
	t.Helper()
	if g, w := got.TotalJ(), want.TotalJ(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("step %d: TotalJ %v, reference %v", step, g, w)
	}
	for _, st := range stateNamesByHand {
		if g, w := got.StateJ(st.s), want.StateJ(st.name); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("step %d: StateJ(%s) %v, reference %v", step, st.name, g, w)
		}
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("step %d: String %q, reference %q", step, g, w)
	}
}

// TestMeterMatchesReference replays seeded random streams through Meter
// and the frozen string-keyed refMeter and requires bit-identical energy,
// the same per-state attribution and output, and the same panics.
func TestMeterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		data := make([]byte, 20+rng.Intn(2000))
		rng.Read(data)
		runMeterDifferential(t, data)
	}
}

// FuzzMeterMatchesReference explores the same generator coverage-guided.
func FuzzMeterMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1994))
	for i := 0; i < 8; i++ {
		data := make([]byte, 32<<(i%4))
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		runMeterDifferential(t, data)
	})
}
