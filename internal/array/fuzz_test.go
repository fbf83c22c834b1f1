package array

import (
	"runtime"
	"slices"
	"strings"
	"testing"
)

// parseAllocBound is the heap one parse of n input bytes may allocate: 64
// bytes per input byte plus 64 KiB, the bound FuzzJobSpec holds for fleet
// job JSON.
func parseAllocBound(n int) uint64 { return uint64(64*n + 64<<10) }

// FuzzParseSpec feeds hostile topology strings (the -array flag) to
// ParseSpec: parsing must never panic or allocate past parseAllocBound, an
// accepted spec must respect the documented member bounds, and rendering it
// back must parse to the same mode and member list.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"mirror:2xflashcard", "stripe:3xflashcard", "mirror:flashcard+disk",
		"mirror:1xflashcard", "stripe:1xflashcard", "stripe:16xdisk+disk",
		"mirror:", "mirror:0xdisk", "mirror:-1xdisk", "mirror:x", "mirror:2x",
		"stripe:disk+2xflashcard+disk", ":", "", "raid5:2xflashcard",
		// Past the 16-member bound the members are counted, not built;
		// building them allocated over 150 bytes per input byte.
		"mirror:" + strings.Repeat("16xdisk+", 1000) + "disk",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp, err := ParseSpec(s)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, parseAllocBound(len(s)); alloc > bound {
			t.Fatalf("parsing a %d-byte spec allocated %d bytes (bound %d)", len(s), alloc, bound)
		}
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
