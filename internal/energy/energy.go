// Package energy provides power-state energy accounting for simulated
// devices, plus the battery-life model used for the paper's headline
// "22% battery-life extension" claim.
//
// Every device in the simulator owns a Meter. The device tells the meter
// which power state it is in as simulated time advances; the meter integrates
// power × time into joules, attributed per state so experiments can report
// where the energy went (idle vs. spin-up vs. transfer vs. erase).
package energy

import (
	"fmt"
	"strconv"
	"strings"

	"mobilestorage/internal/units"
)

// State identifies a device power state for attribution purposes. The set
// is closed, and the states are numbered in name order, so walking them by
// index is walking them by name.
type State uint8

// The device power states.
const (
	StateActive  State = iota // transferring data
	StateCleaner              // flash cleaning copies
	StateErase                // flash erase operation
	StateIdle                 // powered and ready (disk spinning, chip idle)
	StateSleep                // spun down / deep standby
	StateSpinUp               // disk spin-up transient
	StateStandby              // memory retention (DRAM refresh, SRAM data hold)
	numStates
)

var stateNames = [numStates]string{
	"active", "cleaner", "erase", "idle", "sleep", "spinup", "standby",
}

// String returns the state's name.
func (s State) String() string {
	if s < numStates {
		return stateNames[s]
	}
	return "State(" + strconv.Itoa(int(s)) + ")"
}

// Meter integrates energy across labelled power states.
//
// A Meter is driven by calls to Accrue(state, watts, duration). It does not
// track a clock itself; devices own their notion of time and simply report
// intervals. This keeps the meter trivially correct and lets devices account
// overlapping background work (e.g. a flash erase that proceeds during host
// idle time) however their model requires.
type Meter struct {
	joules [numStates]float64
	// present[i] records that state i was ever accrued, so String tells an
	// absent state from one at zero joules.
	present [numStates]bool
	total   float64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{}
}

// Accrue adds watts × duration of energy attributed to state.
// A negative duration or power is rejected with a panic: a device accounting
// backwards in time is a simulator bug we want to fail loudly. The panic
// value is an error whose message names the duration, or the power when
// only the power is negative.
func (m *Meter) Accrue(state State, watts float64, d units.Time) {
	if d < 0 || watts < 0 {
		panic(accrualError{state, watts, d})
	}
	j := watts * d.Seconds()
	m.joules[state] += j
	m.present[state] = true
	m.total += j
}

// accrualError is Accrue's panic value. It formats its message only when
// the message is read, which keeps Accrue small enough to inline at every
// device's call sites.
type accrualError struct {
	state State
	watts float64
	d     units.Time
}

func (e accrualError) Error() string {
	if e.d < 0 {
		return fmt.Sprintf("energy: negative duration %v in state %s", e.d, e.state)
	}
	return fmt.Sprintf("energy: negative power %g W in state %s", e.watts, e.state)
}

// TotalJ returns total accumulated energy in joules.
func (m *Meter) TotalJ() float64 { return m.total }

// StateJ returns the energy attributed to one state.
func (m *Meter) StateJ(s State) float64 { return m.joules[s] }

// Merge adds all of other's energy into m. States are merged in index
// order: float addition is order-sensitive in the last ulp, and arbitrary
// order would make merged totals vary between identical runs.
func (m *Meter) Merge(other *Meter) {
	for s := range numStates {
		if !other.present[s] {
			continue
		}
		v := other.joules[s]
		m.joules[s] += v
		m.present[s] = true
		m.total += v
	}
}

// String renders the meter as "total J (state=J, ...)" with states in name
// order for deterministic output.
func (m *Meter) String() string {
	parts := make([]string, 0, numStates)
	for s := range numStates {
		if m.present[s] {
			parts = append(parts, fmt.Sprintf("%s=%.1fJ", s, m.joules[s]))
		}
	}
	return fmt.Sprintf("%.1fJ (%s)", m.total, strings.Join(parts, ", "))
}
