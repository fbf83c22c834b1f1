package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PlanSet maps array member names to their fault plans: each member of a
// striped or mirrored array carries its own fault domain. Keys are member
// names ("m0", "m1", …) matching the array's member order; the special key
// "*" supplies a default plan for members without an explicit entry.
type PlanSet map[string]*Plan

// ParsePlanSet decodes and validates a JSON object of member name → plan.
// Unknown plan fields are rejected exactly as in ParsePlan, a null plan
// injects nothing, and member plans may not schedule power failures —
// power loss is a whole-system event and belongs in the top-level plan.
// One decoder reads every member, so the heap a parse allocates grows
// with the input, not with a decoder per member.
func ParsePlanSet(data []byte) (PlanSet, error) {
	var ps PlanSet
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ps); err != nil {
		return nil, fmt.Errorf("fault: parsing plan set: %w", err)
	}
	if ps == nil {
		ps = PlanSet{}
	}
	for name, p := range ps {
		if p == nil {
			ps[name] = new(Plan)
		}
	}
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	return ps, nil
}

// validateMemberKey accepts "*" or "m<N>" member names.
func validateMemberKey(name string) error {
	if name == "*" {
		return nil
	}
	if rest, ok := strings.CutPrefix(name, "m"); ok {
		if n, err := strconv.Atoi(rest); err == nil && n >= 0 && rest == strconv.Itoa(n) {
			return nil
		}
	}
	return fmt.Errorf("fault: plan-set key %q is not a member name (want \"m0\", \"m1\", … or \"*\")", name)
}

// Member resolves the plan for member i: an explicit "m<i>" entry wins,
// then the "*" default, then nil (no faults). Nil-safe.
func (ps PlanSet) Member(i int) *Plan {
	if ps == nil {
		return nil
	}
	if p, ok := ps["m"+strconv.Itoa(i)]; ok {
		return p
	}
	return ps["*"]
}

// sortedNames returns the set's keys in sorted order, so errors name the
// same key on every run.
func (ps PlanSet) sortedNames() []string {
	names := make([]string, 0, len(ps))
	for name := range ps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CheckMembers rejects an "m<N>" key with N ≥ n, a plan for a member an
// n-member array does not have, which Member would never look up. It
// assumes Validate has accepted the keys; "*" fits any array.
func (ps PlanSet) CheckMembers(n int) error {
	for _, name := range ps.sortedNames() {
		if i, err := strconv.Atoi(strings.TrimPrefix(name, "m")); err == nil && i >= n {
			return fmt.Errorf("fault: plan-set key %q names a member the array does not have: it has %d (m0 to m%d)", name, n, n-1)
		}
	}
	return nil
}

// Validate checks every member plan.
func (ps PlanSet) Validate() error {
	for _, name := range ps.sortedNames() {
		if err := validateMemberKey(name); err != nil {
			return err
		}
		p := ps[name]
		if p == nil {
			continue
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("fault: member %q: %w", name, err)
		}
		if len(p.PowerFailAtUs) > 0 {
			return fmt.Errorf("fault: member %q: power_fail_at_us is system-wide; schedule it in the top-level plan", name)
		}
	}
	return nil
}

// MemberSeed derives member i's injector seed from the run seed: a
// splitmix64 step keyed by the index, so members draw independent fault
// sequences while the whole run stays reproducible from one seed.
func MemberSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
