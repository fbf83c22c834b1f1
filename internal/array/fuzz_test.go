package array

import (
	"slices"
	"testing"
)

// FuzzParseSpec feeds hostile topology strings (the -array flag) to
// ParseSpec: parsing must never panic, an accepted spec must respect the
// documented member bounds, and rendering it back must parse to the same
// mode and member list.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"mirror:2xflashcard", "stripe:3xflashcard", "mirror:flashcard+disk",
		"mirror:1xflashcard", "stripe:1xflashcard", "stripe:16xdisk+disk",
		"mirror:", "mirror:0xdisk", "mirror:-1xdisk", "mirror:x", "mirror:2x",
		"stripe:disk+2xflashcard+disk", ":", "", "raid5:2xflashcard",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		min := 1
		if sp.Mode == Stripe {
			min = 2
		}
		if n := len(sp.Members); n < min || n > 16 {
			t.Fatalf("ParseSpec(%q) accepted %d %s members, want %d–16", s, n, sp.Mode, min)
		}
		rt, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not parse: %v", s, sp.String(), err)
		}
		if rt.Mode != sp.Mode || !slices.Equal(rt.Members, sp.Members) {
			t.Fatalf("ParseSpec(%q) = %s %v, round trip %q gives %s %v",
				s, sp.Mode, sp.Members, sp.String(), rt.Mode, rt.Members)
		}
	})
}
