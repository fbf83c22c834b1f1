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
	"sort"
	"strings"

	"mobilestorage/internal/units"
)

// State identifies a device power state for attribution purposes.
type State string

// Common states shared across device models. Devices may define their own.
const (
	StateActive  State = "active"  // transferring data
	StateIdle    State = "idle"    // powered and ready (disk spinning, chip idle)
	StateSleep   State = "sleep"   // spun down / deep standby
	StateSpinUp  State = "spinup"  // disk spin-up transient
	StateErase   State = "erase"   // flash erase operation
	StateCleaner State = "cleaner" // flash cleaning copies
	StateStandby State = "standby" // memory retention (DRAM refresh, SRAM data hold)
)

// knownStates lists the predefined states in sorted name order. The meter
// stores their energy in a flat array indexed by this order — Accrue is on
// every device's per-operation path, and hashing a string key per accrual
// dominated whole-trace replay profiles. Keeping the array in sorted name
// order means Merge's in-order walk reproduces the exact float-addition
// order of the original sorted-map implementation.
var knownStates = [...]State{
	StateActive, StateCleaner, StateErase, StateIdle,
	StateSleep, StateSpinUp, StateStandby,
}

const numKnown = len(knownStates)

// knownIndex maps a predefined state to its array slot, or -1 for a
// device-defined custom state (those spill to a map).
func knownIndex(s State) int {
	switch s {
	case StateActive:
		return 0
	case StateCleaner:
		return 1
	case StateErase:
		return 2
	case StateIdle:
		return 3
	case StateSleep:
		return 4
	case StateSpinUp:
		return 5
	case StateStandby:
		return 6
	}
	return -1
}

// Meter integrates energy across labelled power states.
//
// A Meter is driven by calls to Accrue(state, watts, duration). It does not
// track a clock itself; devices own their notion of time and simply report
// intervals. This keeps the meter trivially correct and lets devices account
// overlapping background work (e.g. a flash erase that proceeds during host
// idle time) however their model requires.
type Meter struct {
	known [numKnown]float64
	// present[i] records that known state i was ever accrued, preserving the
	// map implementation's distinction between "absent" and "zero joules" in
	// ByState and String output.
	present [numKnown]bool
	// spill holds device-defined custom states; nil until one appears.
	spill map[State]float64
	total float64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{}
}

// Accrue adds watts × duration of energy attributed to state.
// Negative durations are rejected with a panic: a device accounting backwards
// in time is a simulator bug we want to fail loudly.
func (m *Meter) Accrue(state State, watts float64, d units.Time) {
	if d < 0 {
		panic(fmt.Sprintf("energy: negative duration %v in state %s", d, state))
	}
	if watts < 0 {
		panic(fmt.Sprintf("energy: negative power %g W in state %s", watts, state))
	}
	m.AccrueJoules(state, watts*d.Seconds())
}

// Slot is a precomputed index for one of the predefined states. Device hot
// paths accrue through a slot to skip the per-call state-name dispatch;
// AccrueSlot(SlotX, w, d) is exactly Accrue(StateX, w, d).
type Slot int8

// Slots for the predefined states, in knownStates order.
const (
	SlotActive  Slot = 0
	SlotCleaner Slot = 1
	SlotErase   Slot = 2
	SlotIdle    Slot = 3
	SlotSleep   Slot = 4
	SlotSpinUp  Slot = 5
	SlotStandby Slot = 6
)

// AccrueSlot adds watts × duration of energy attributed to the slot's state,
// with the same negative-input panics as Accrue.
func (m *Meter) AccrueSlot(i Slot, watts float64, d units.Time) {
	if d < 0 || watts < 0 {
		m.Accrue(knownStates[i], watts, d) // reproduce Accrue's panic
	}
	j := watts * d.Seconds()
	m.known[i] += j
	m.present[i] = true
	m.total += j
}

// AccrueJoules adds a precomputed energy amount to a state. Used for
// fixed-energy events (e.g. a disk spin-up charged as a lump).
func (m *Meter) AccrueJoules(state State, j float64) {
	if j < 0 {
		panic(fmt.Sprintf("energy: negative energy %g J in state %s", j, state))
	}
	if i := knownIndex(state); i >= 0 {
		m.known[i] += j
		m.present[i] = true
	} else {
		if m.spill == nil {
			m.spill = make(map[State]float64)
		}
		m.spill[state] += j
	}
	m.total += j
}

// TotalJ returns total accumulated energy in joules.
func (m *Meter) TotalJ() float64 { return m.total }

// ByState returns a copy of the per-state attribution map.
func (m *Meter) ByState() map[State]float64 {
	out := make(map[State]float64, numKnown+len(m.spill))
	for i, s := range knownStates {
		if m.present[i] {
			out[s] = m.known[i]
		}
	}
	for k, v := range m.spill {
		out[k] = v
	}
	return out
}

// StateJ returns the energy attributed to one state.
func (m *Meter) StateJ(s State) float64 {
	if i := knownIndex(s); i >= 0 {
		return m.known[i]
	}
	return m.spill[s]
}

// Merge adds all of other's energy into m. States are merged in sorted
// order: float addition is order-sensitive in the last ulp, and arbitrary
// order would make merged totals vary between identical runs.
func (m *Meter) Merge(other *Meter) {
	if other.spill == nil {
		// knownStates is already in sorted name order.
		for i := range knownStates {
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
	states := make([]State, 0, len(by))
	for k := range by {
		states = append(states, k)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	for _, k := range states {
		m.AccrueJoules(k, by[k])
	}
}

// String renders the meter as "total J (state=J, ...)" with states sorted
// for deterministic output.
func (m *Meter) String() string {
	by := m.ByState()
	states := make([]string, 0, len(by))
	for k := range by {
		states = append(states, string(k))
	}
	sort.Strings(states)
	parts := make([]string, 0, len(states))
	for _, s := range states {
		parts = append(parts, fmt.Sprintf("%s=%.1fJ", s, by[State(s)]))
	}
	return fmt.Sprintf("%.1fJ (%s)", m.total, strings.Join(parts, ", "))
}
