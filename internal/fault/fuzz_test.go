package fault

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mobilestorage/internal/units"
)

// parseAllocBound is the heap one parse of n input bytes may allocate: 64
// bytes per input byte plus 64 KiB, the bound FuzzJobSpec holds for fleet
// job JSON.
func parseAllocBound(n int) uint64 { return uint64(64*n + 64<<10) }

// parseBounded runs parse on data and fails t when it allocates past
// parseAllocBound, whatever the input holds.
func parseBounded[T any](t *testing.T, data []byte, parse func([]byte) (T, error)) (T, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := parse(data)
	runtime.ReadMemStats(&after)
	if alloc, bound := after.TotalAlloc-before.TotalAlloc, parseAllocBound(len(data)); alloc > bound {
		t.Fatalf("parsing %d bytes allocated %d bytes (bound %d)", len(data), alloc, bound)
	}
	return v, err
}

// FuzzFaultPlan feeds hostile JSON to ParsePlan and, when a plan survives
// validation, drives an injector through a fixed op schedule twice with the
// same seed: parsing must never panic or allocate past parseAllocBound,
// accepted plans must satisfy their own documented bounds, and injection
// must be deterministic per seed.
func FuzzFaultPlan(f *testing.F) {
	f.Add([]byte(`{}`), int64(0))
	f.Add([]byte(`{"read_error_rate":0.5}`), int64(1))
	f.Add([]byte(`{"write_error_rate":1,"max_retries":16,"backoff_us":1,"max_backoff_us":2}`), int64(42))
	f.Add([]byte(`{"erase_error_rate":0.01,"wear_out_after":5,"spare_segments":64}`), int64(-7))
	f.Add([]byte(`{"power_fail_at_us":[0,0,9223372036854775807]}`), int64(9))
	f.Add([]byte(`{"read_error_rate":1e-300,"max_backoff_us":9223372036854775807}`), int64(3))
	f.Add([]byte(`{"read_error_rate":2}`), int64(0))
	f.Add([]byte(`"not an object"`), int64(0))

	run := func(in *Injector) (report *Report, attempts [60]int64) {
		ops := []Op{OpRead, OpWrite, OpErase}
		for i := range attempts {
			att, backoff := in.Attempts(ops[i%3], "dev", units.Time(i))
			if att < 1 {
				panic("attempt count below 1")
			}
			if backoff < 0 {
				panic("negative backoff")
			}
			attempts[i] = att
		}
		return in.Report(), attempts
	}

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		p, err := parseBounded(t, data, ParsePlan)
		if err != nil {
			return // rejected input; the property is "no panic"
		}
		// Accepted plans obey their own bounds.
		for _, r := range []float64{p.ReadErrorRate, p.WriteErrorRate, p.EraseErrorRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("accepted plan has rate %v", r)
			}
		}
		if p.MaxRetries < 0 || p.MaxRetries > maxMaxRetries {
			t.Fatalf("accepted plan has max_retries %d", p.MaxRetries)
		}
		in1 := NewInjector(p, seed, nil)
		in2 := NewInjector(p, seed, nil)
		if (in1 == nil) != !p.Enabled() {
			t.Fatalf("injector nil-ness disagrees with Enabled()=%v", p.Enabled())
		}
		rep1, att1 := run(in1)
		rep2, att2 := run(in2)
		if att1 != att2 {
			t.Fatal("same plan+seed produced different attempt schedules")
		}
		if in1 != nil {
			limit := int64(p.MaxRetries) + 1
			if p.MaxRetries == 0 {
				limit = DefaultMaxRetries + 1
			}
			for i, a := range att1 {
				if a > limit {
					t.Fatalf("op %d took %d attempts, limit %d", i, a, limit)
				}
			}
			if !reflect.DeepEqual(withoutViolations(*rep1), withoutViolations(*rep2)) {
				t.Fatalf("same plan+seed produced different reports:\n%+v\n%+v", rep1, rep2)
			}
		}
		// Sorted, deduplicated schedule regardless of input order.
		if in1 != nil {
			sched := in1.PowerFailSchedule()
			for i := 1; i < len(sched); i++ {
				if sched[i] <= sched[i-1] {
					t.Fatalf("schedule not strictly increasing: %v", sched)
				}
			}
		}
	})
}

// FuzzPlanSet feeds hostile JSON to ParsePlanSet, which reads storagesim's
// -member-faults: parsing must never panic or allocate past
// parseAllocBound, and an accepted set must obey the per-member rules —
// every key a member name, every plan valid and free of power failures —
// and pass its own Validate.
func FuzzPlanSet(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"m0":{"die_at_us":5000000,"latent_error_rate":0.01},"*":{"read_error_rate":0.02,"carry_cleaning_backlog":true}}`,
		`{"m1":{"die_after_erases":3},"m15":{"write_error_rate":1,"max_retries":16}}`,
		`{"m0":{"power_fail_at_us":[1]}}`,
		`{"m01":{}}`,
		`{"m0":null}`,
		`{"m0":{},"m0":{"read_error_rate":2}}`,
		`{"*":{"spare_segments":64,"wear_out_after":1}}`,
		`["m0"]`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	// Thousands of distinct members: a decoder per member plan once
	// allocated over 100 bytes per input byte here.
	many := []byte("{")
	for i := range 2000 {
		if i > 0 {
			many = append(many, ',')
		}
		many = fmt.Appendf(many, `"m%d":{}`, i)
	}
	f.Add(append(many, '}'))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := parseBounded(t, data, ParsePlanSet)
		if err != nil {
			return
		}
		for name, p := range ps {
			if err := validateMemberKey(name); err != nil {
				t.Fatalf("accepted set has key %q: %v", name, err)
			}
			if p == nil {
				t.Fatalf("accepted set has a nil plan for %q", name)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted set has an invalid plan for %q: %v", name, err)
			}
			if len(p.PowerFailAtUs) > 0 {
				t.Fatalf("accepted set schedules power failures for member %q", name)
			}
		}
		if err := ps.Validate(); err != nil {
			t.Fatalf("accepted set fails Validate: %v", err)
		}
	})
}

// withoutViolations strips the (slice-typed, incomparable) violation list so
// reports can be compared with ==.
func withoutViolations(r Report) Report {
	r.Violations = nil
	return r
}
