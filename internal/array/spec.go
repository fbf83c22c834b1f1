package array

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is a parsed array topology: a mode plus the member device kinds in
// slot order. Core turns it into constructed members.
type Spec struct {
	Mode Mode
	// Members names each slot's device kind: "flashcard" or "disk".
	Members []string
}

// MemberKinds the spec syntax accepts. "flashcard" members share the
// run's FlashCardParams; "disk" members share its DiskParams.
var MemberKinds = []string{"flashcard", "disk"}

// ParseSpec parses a topology string:
//
//	mirror:2xflashcard       — two mirrored flash cards
//	stripe:3xflashcard       — three striped flash cards
//	mirror:flashcard+disk    — a flash card mirrored with a disk
//
// The count form "<N>x<kind>" expands to N identical members; the "+"
// form lists heterogeneous members explicitly. Mirror accepts N ≥ 1
// (N = 1 is the wrapper-overhead baseline), stripe needs N ≥ 2.
func ParseSpec(s string) (*Spec, error) {
	mode, rest, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("array: spec %q: want \"mirror:...\" or \"stripe:...\"", s)
	}
	spec := &Spec{}
	members := 0 // members named so far; only the first 16 are built
	switch mode {
	case "mirror":
		spec.Mode = Mirror
	case "stripe":
		spec.Mode = Stripe
	default:
		return nil, fmt.Errorf("array: spec %q: unknown mode %q (want mirror or stripe)", s, mode)
	}
	for _, part := range strings.Split(rest, "+") {
		count := 1
		kind := part
		if n, k, ok := strings.Cut(part, "x"); ok {
			c, err := strconv.Atoi(n)
			if err != nil || c < 1 {
				return nil, fmt.Errorf("array: spec %q: bad member count %q", s, n)
			}
			if c > 16 {
				return nil, fmt.Errorf("array: spec %q: %d members exceeds the supported 16", s, c)
			}
			count, kind = c, k
		}
		if !validKind(kind) {
			return nil, fmt.Errorf("array: spec %q: unknown member kind %q (want one of %s)",
				s, kind, strings.Join(MemberKinds, ", "))
		}
		if members += count; members <= 16 {
			for i := 0; i < count; i++ {
				spec.Members = append(spec.Members, kind)
			}
		}
	}
	min := 1
	if spec.Mode == Stripe {
		min = 2
	}
	if members < min {
		return nil, fmt.Errorf("array: spec %q: %s needs at least %d members", s, spec.Mode, min)
	}
	if members > 16 {
		return nil, fmt.Errorf("array: spec %q: %d members exceeds the supported 16", s, members)
	}
	return spec, nil
}

// validKind reports whether kind is a supported member device kind.
func validKind(kind string) bool {
	for _, k := range MemberKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// String renders the spec back to the parse syntax.
func (s *Spec) String() string {
	uniform := true
	for _, m := range s.Members[1:] {
		if m != s.Members[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return fmt.Sprintf("%s:%dx%s", s.Mode, len(s.Members), s.Members[0])
	}
	return fmt.Sprintf("%s:%s", s.Mode, strings.Join(s.Members, "+"))
}
