package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mobilestorage/internal/units"
)

func TestMeterAccrue(t *testing.T) {
	m := NewMeter()
	m.Accrue(StateIdle, 0.7, 10*units.Second) // 7 J
	m.Accrue(StateActive, 1.75, 2*units.Second)
	m.Accrue(StateIdle, 0.7, 10*units.Second)
	if got := m.StateJ(StateIdle); math.Abs(got-14) > 1e-9 {
		t.Errorf("idle = %g J, want 14", got)
	}
	if got := m.StateJ(StateActive); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("active = %g J, want 3.5", got)
	}
	if got := m.TotalJ(); math.Abs(got-17.5) > 1e-9 {
		t.Errorf("total = %g J, want 17.5", got)
	}
}

// requireAccruePanic runs one accrual on a fresh meter and requires it to
// panic with an error whose message is want.
func requireAccruePanic(t *testing.T, state State, watts float64, d units.Time, want string) {
	t.Helper()
	p := panicOf(func() { NewMeter().Accrue(state, watts, d) })
	if p == nil {
		t.Fatalf("Accrue(%s, %g, %d) did not panic", state, watts, d)
	}
	err, ok := p.(error)
	if !ok {
		t.Fatalf("Accrue(%s, %g, %d) panicked with %T %v, want an error", state, watts, d, p, p)
	}
	if got := err.Error(); got != want {
		t.Errorf("Accrue(%s, %g, %d) panicked with %q, want %q", state, watts, d, got, want)
	}
}

func TestMeterNegativeDurationPanics(t *testing.T) {
	requireAccruePanic(t, StateIdle, 1, -units.Second, "energy: negative duration -1s in state idle")
}

func TestMeterNegativePowerPanics(t *testing.T) {
	requireAccruePanic(t, StateIdle, -1, units.Second, "energy: negative power -1 W in state idle")
}

// TestMeterNegativeDurationAndPowerPanics: with both negative, the
// duration is the one reported.
func TestMeterNegativeDurationAndPowerPanics(t *testing.T) {
	requireAccruePanic(t, StateErase, -0.25, -1500, "energy: negative duration -1.5ms in state erase")
}

func TestMeterMerge(t *testing.T) {
	a, b := NewMeter(), NewMeter()
	a.Accrue(StateIdle, 1, units.Second)
	b.Accrue(StateIdle, 1, 2*units.Second)
	b.Accrue(StateErase, 0.5, 2*units.Second)
	a.Merge(b)
	if math.Abs(a.StateJ(StateIdle)-3) > 1e-9 || math.Abs(a.StateJ(StateErase)-1) > 1e-9 {
		t.Errorf("merge: %v", a)
	}
	if math.Abs(a.TotalJ()-4) > 1e-9 {
		t.Errorf("merged total = %g, want 4", a.TotalJ())
	}
}

func TestMeterString(t *testing.T) {
	m := NewMeter()
	m.Accrue(StateIdle, 1, units.Second)
	m.Accrue(StateActive, 2, units.Second)
	s := m.String()
	// States must be sorted for deterministic output.
	if !strings.Contains(s, "active=2.0J, idle=1.0J") {
		t.Errorf("String() = %q", s)
	}
}

// TestMeterTotalIsSum: the total always equals the sum over states.
func TestMeterTotalIsSum(t *testing.T) {
	f := func(durations []uint16) bool {
		m := NewMeter()
		states := []State{StateActive, StateIdle, StateSleep, StateErase}
		for i, d := range durations {
			m.Accrue(states[i%len(states)], 0.5, units.Time(d))
		}
		var sum float64
		for s := range numStates {
			sum += m.StateJ(s)
		}
		return math.Abs(sum-m.TotalJ()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBatteryModelHeadline(t *testing.T) {
	// The paper's headline: storage at 20% of system energy, flash saving
	// ~90% of it, extends battery life by ≈22%.
	m := BatteryModel{StorageFraction: 0.20, BaselineJ: 1000, AlternativeJ: 100}
	if got := m.StorageSavings(); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("savings = %g, want 0.9", got)
	}
	if got := m.LifeExtension(); math.Abs(got-0.2195) > 0.001 {
		t.Errorf("extension = %g, want ≈0.22", got)
	}
}

func TestBatteryModelEdgeCases(t *testing.T) {
	// No baseline: no savings.
	if (BatteryModel{StorageFraction: 0.2}).StorageSavings() != 0 {
		t.Error("zero baseline should have zero savings")
	}
	// Alternative worse than baseline: clamp savings at zero.
	m := BatteryModel{StorageFraction: 0.2, BaselineJ: 100, AlternativeJ: 200}
	if m.StorageSavings() != 0 || m.LifeExtension() != 0 {
		t.Error("worse alternative should not extend battery life")
	}
	// Degenerate full savings of all system energy.
	m = BatteryModel{StorageFraction: 1.0, BaselineJ: 100, AlternativeJ: 0}
	if ext := m.LifeExtension(); ext != 0 {
		t.Errorf("degenerate model returned %g", ext)
	}
}

func TestBatteryModelMonotonic(t *testing.T) {
	// More storage share → more extension, for a fixed savings ratio.
	prev := -1.0
	for _, share := range []float64{0.1, 0.2, 0.3, 0.4, 0.54} {
		m := BatteryModel{StorageFraction: share, BaselineJ: 10, AlternativeJ: 1}
		if ext := m.LifeExtension(); ext <= prev {
			t.Errorf("extension not monotonic at share %g", share)
		} else {
			prev = ext
		}
	}
}
