package energy

import (
	"fmt"
	"sort"
	"strings"

	"mobilestorage/internal/units"
)

// refMeter is the string-keyed Meter that the State enum replaced, frozen
// as the differential oracle for TestMeterMatchesReference and
// FuzzMeterMatchesReference. Its predefined states live in a flat array in
// sorted name order and any other name goes to a map; Merge and String
// walk the names in sorted order. Never optimize it: its job is to stay
// simple enough to audit by eye.
type refMeter struct {
	known   [refNumKnown]float64
	present [refNumKnown]bool
	custom  map[refState]float64
	total   float64
}

// refState is the oracle's state key: the state's name.
type refState string

var refKnownStates = [...]refState{
	"active", "cleaner", "erase", "idle", "sleep", "spinup", "standby",
}

const refNumKnown = len(refKnownStates)

func refKnownIndex(s refState) int {
	switch s {
	case "active":
		return 0
	case "cleaner":
		return 1
	case "erase":
		return 2
	case "idle":
		return 3
	case "sleep":
		return 4
	case "spinup":
		return 5
	case "standby":
		return 6
	}
	return -1
}

func newRefMeter() *refMeter { return &refMeter{} }

func (m *refMeter) Accrue(state refState, watts float64, d units.Time) {
	if d < 0 {
		panic(fmt.Sprintf("energy: negative duration %v in state %s", d, state))
	}
	if watts < 0 {
		panic(fmt.Sprintf("energy: negative power %g W in state %s", watts, state))
	}
	m.addJoules(state, watts*d.Seconds())
}

func (m *refMeter) addJoules(state refState, j float64) {
	if j < 0 {
		panic(fmt.Sprintf("energy: negative energy %g J in state %s", j, state))
	}
	if i := refKnownIndex(state); i >= 0 {
		m.known[i] += j
		m.present[i] = true
	} else {
		if m.custom == nil {
			m.custom = make(map[refState]float64)
		}
		m.custom[state] += j
	}
	m.total += j
}

func (m *refMeter) TotalJ() float64 { return m.total }

func (m *refMeter) ByState() map[refState]float64 {
	out := make(map[refState]float64, refNumKnown+len(m.custom))
	for i, s := range refKnownStates {
		if m.present[i] {
			out[s] = m.known[i]
		}
	}
	for k, v := range m.custom {
		out[k] = v
	}
	return out
}

func (m *refMeter) StateJ(s refState) float64 {
	if i := refKnownIndex(s); i >= 0 {
		return m.known[i]
	}
	return m.custom[s]
}

func (m *refMeter) Merge(other *refMeter) {
	if other.custom == nil {
		for i := range refKnownStates {
			if !other.present[i] {
				continue
			}
			v := other.known[i]
			m.known[i] += v
			m.present[i] = true
			m.total += v
		}
		return
	}
	by := other.ByState()
	states := make([]refState, 0, len(by))
	for k := range by {
		states = append(states, k)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	for _, k := range states {
		m.addJoules(k, by[k])
	}
}

func (m *refMeter) String() string {
	by := m.ByState()
	states := make([]string, 0, len(by))
	for k := range by {
		states = append(states, string(k))
	}
	sort.Strings(states)
	parts := make([]string, 0, len(states))
	for _, s := range states {
		parts = append(parts, fmt.Sprintf("%s=%.1fJ", s, by[refState(s)]))
	}
	return fmt.Sprintf("%.1fJ (%s)", m.total, strings.Join(parts, ", "))
}
