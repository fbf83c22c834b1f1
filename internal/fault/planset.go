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

// Validate checks every member plan.
func (ps PlanSet) Validate() error {
	names := make([]string, 0, len(ps))
	for name := range ps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
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
