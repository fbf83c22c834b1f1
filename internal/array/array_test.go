package array

import (
	"strings"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// fakeDev is a constant-latency member device that records which block
// addresses it has been asked to write, so tests can check fan-out,
// striping geometry, and the acked-data witness.
type fakeDev struct {
	name    string
	latency units.Time
	meter   *energy.Meter
	writes  map[units.Bytes]bool
	reads   int
	deleted int
}

func newFake(name string, latency units.Time) *fakeDev {
	return &fakeDev{name: name, latency: latency, meter: energy.NewMeter(), writes: map[units.Bytes]bool{}}
}

func (f *fakeDev) Access(req device.Request) units.Time {
	switch req.Op {
	case trace.Write:
		for a := req.Addr; a < req.Addr+req.Size; a += units.KB {
			f.writes[a] = true
		}
	case trace.Read:
		f.reads++
	case trace.Delete:
		f.deleted++
	}
	return req.Time + f.latency
}
func (f *fakeDev) Idle(units.Time)      {}
func (f *fakeDev) Finish(units.Time)    {}
func (f *fakeDev) Meter() *energy.Meter { return f.meter }
func (f *fakeDev) Name() string         { return f.name }
func (f *fakeDev) HasData(addr, size units.Bytes) bool {
	for a := addr; a < addr+size; a += units.KB {
		if !f.writes[a] {
			return false
		}
	}
	return true
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in      string
		mode    Mode
		members int
		wantErr string
	}{
		{"mirror:2xflashcard", Mirror, 2, ""},
		{"stripe:3xflashcard", Stripe, 3, ""},
		{"mirror:flashcard+disk", Mirror, 2, ""},
		{"mirror:1xflashcard", Mirror, 1, ""},
		{"stripe:1xflashcard", 0, 0, "at least 2"},
		{"raid5:2xflashcard", 0, 0, "unknown mode"},
		{"mirror:2xfloppy", 0, 0, "unknown member kind"},
		{"mirror", 0, 0, "want \"mirror:"},
		{"mirror:0xflashcard", 0, 0, "bad member count"},
		{"mirror:99xflashcard", 0, 0, "exceeds the supported 16"},
	}
	for _, c := range cases {
		sp, err := ParseSpec(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseSpec(%q) err = %v, want %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if sp.Mode != c.mode || len(sp.Members) != c.members {
			t.Errorf("ParseSpec(%q) = %s/%d members", c.in, sp.Mode, len(sp.Members))
		}
		if rt, err := ParseSpec(sp.String()); err != nil || rt.String() != sp.String() {
			t.Errorf("ParseSpec(%q).String() = %q does not round-trip", c.in, sp.String())
		}
	}
}

// TestMirrorFanOut: writes land on every member, reads on one, and the
// completion time is the slowest replica's.
func TestMirrorFanOut(t *testing.T) {
	fast, slow := newFake("fast", units.Millisecond), newFake("slow", 5*units.Millisecond)
	arr, err := New(Config{Mode: Mirror, BlockSize: units.KB},
		[]Member{{Dev: fast}, {Dev: slow}})
	if err != nil {
		t.Fatal(err)
	}
	done := arr.Access(device.Request{Time: 0, Op: trace.Write, Addr: 0, Size: 4 * units.KB})
	if done != 5*units.Millisecond {
		t.Errorf("mirror write completed at %v, want the slow replica's 5ms", done)
	}
	if len(fast.writes) != 4 || len(slow.writes) != 4 {
		t.Errorf("write fan-out: fast=%d slow=%d blocks, want 4 each", len(fast.writes), len(slow.writes))
	}
	arr.Access(device.Request{Time: units.Second, Op: trace.Read, Addr: 0, Size: units.KB})
	if fast.reads+slow.reads != 1 {
		t.Errorf("mirror read hit %d members, want exactly 1", fast.reads+slow.reads)
	}
	arr.Access(device.Request{Time: 2 * units.Second, Op: trace.Delete, Addr: 0, Size: 4 * units.KB})
	if fast.deleted != 1 || slow.deleted != 1 {
		t.Error("delete did not reach every member")
	}
}

// TestStripeGeometry: global block g lives on member g mod N at local
// block g div N, partial blocks preserved.
func TestStripeGeometry(t *testing.T) {
	m0, m1 := newFake("m0", units.Millisecond), newFake("m1", units.Millisecond)
	arr, err := New(Config{Mode: Stripe, BlockSize: units.KB},
		[]Member{{Dev: m0}, {Dev: m1}})
	if err != nil {
		t.Fatal(err)
	}
	// Global blocks 0..3 → m0 gets g0,g2 at local 0,1; m1 gets g1,g3 at local 0,1.
	arr.Access(device.Request{Time: 0, Op: trace.Write, Addr: 0, Size: 4 * units.KB})
	for _, m := range []*fakeDev{m0, m1} {
		if !m.writes[0] || !m.writes[units.KB] || len(m.writes) != 2 {
			t.Errorf("member %s wrote %v, want local blocks 0 and 1", m.name, m.writes)
		}
	}
}

// TestMirrorDeathAndRebuild: killing a member verifies the acked ledger
// against the survivor, rebuilds onto the replacement, and gates reads on
// the rebuilt copy until the copy completes.
func TestMirrorDeathAndRebuild(t *testing.T) {
	m0, m1 := newFake("m0", units.Millisecond), newFake("m1", units.Millisecond)
	var replacement *fakeDev
	plan := &fault.Plan{DieAtUs: 1_000_000}
	inj := fault.NewInjector(plan, 1, nil)
	arr, err := New(Config{Mode: Mirror, BlockSize: units.KB}, []Member{
		{Dev: m0, Inj: inj, Replace: func() (device.Device, error) {
			replacement = newFake("m0b", units.Millisecond)
			return replacement, nil
		}},
		{Dev: m1},
	})
	if err != nil {
		t.Fatal(err)
	}
	arr.Access(device.Request{Time: 0, Op: trace.Write, Addr: 0, Size: 8 * units.KB})
	arr.Idle(2 * units.Second) // past die_at_us: m0 dies, rebuild fires
	if replacement == nil {
		t.Fatal("no replacement built after scheduled death")
	}
	if !replacement.HasData(0, 8*units.KB) {
		t.Error("rebuild did not copy the acknowledged data onto the replacement")
	}
	rep := arr.FaultReport()
	if rep == nil || rep.DeviceDeaths != 1 || rep.Rebuilds != 1 {
		t.Fatalf("report = %+v, want one death and one rebuild", rep)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if arr.liveCount() < len(arr.members) {
		t.Error("rebuilt mirror still reports degraded")
	}
}

// TestMirrorLostAckedWriteDetected: if the only member holding an
// acknowledged write dies and the survivor does not have the data, the
// ledger must record a violation — the invariant check is real, not
// vacuous.
func TestMirrorLostAckedWriteDetected(t *testing.T) {
	m0, m1 := newFake("m0", units.Millisecond), newFake("m1", units.Millisecond)
	inj := fault.NewInjector(&fault.Plan{DieAtUs: 1_000_000}, 1, nil)
	arr, err := New(Config{Mode: Mirror, BlockSize: units.KB},
		[]Member{{Dev: m1, Inj: inj}, {Dev: m0}})
	if err != nil {
		t.Fatal(err)
	}
	arr.Access(device.Request{Time: 0, Op: trace.Write, Addr: 0, Size: 4 * units.KB})
	// Sabotage the survivor: drop its copy behind the array's back.
	m0.writes = map[units.Bytes]bool{}
	arr.Idle(2 * units.Second)
	rep := arr.FaultReport()
	if rep == nil || len(rep.Violations) == 0 {
		t.Fatal("lost acknowledged write went undetected")
	}
}

// TestLastMemberNeverDies: a death schedule that would kill the only live
// member is suppressed — a fully dead array cannot replay a trace.
func TestLastMemberNeverDies(t *testing.T) {
	m0 := newFake("m0", units.Millisecond)
	inj := fault.NewInjector(&fault.Plan{DieAtUs: 1000}, 1, nil)
	arr, err := New(Config{Mode: Mirror, BlockSize: units.KB}, []Member{{Dev: m0, Inj: inj}})
	if err != nil {
		t.Fatal(err)
	}
	arr.Idle(units.Second)
	done := arr.Access(device.Request{Time: units.Second, Op: trace.Write, Addr: 0, Size: units.KB})
	if done <= units.Second {
		t.Error("sole member stopped serving after its suppressed death")
	}
	if rep := arr.FaultReport(); rep != nil && rep.DeviceDeaths != 0 {
		t.Errorf("sole member recorded %d deaths", rep.DeviceDeaths)
	}
}

// TestStripeDeadShareBackoff: a dead stripe member's shares pay the retry
// schedule instead of serving.
func TestStripeDeadShareBackoff(t *testing.T) {
	m0, m1 := newFake("m0", units.Millisecond), newFake("m1", units.Millisecond)
	inj := fault.NewInjector(&fault.Plan{DieAtUs: 1000, MaxRetries: 2, BackoffUs: 500, MaxBackoffUs: 10_000}, 1, nil)
	arr, err := New(Config{Mode: Stripe, BlockSize: units.KB},
		[]Member{{Dev: m0, Inj: inj}, {Dev: m1}})
	if err != nil {
		t.Fatal(err)
	}
	arr.Idle(units.Second)
	if arr.liveCount() == len(arr.members) {
		t.Fatal("stripe member did not die on schedule")
	}
	before := m1.reads
	done := arr.Access(device.Request{Time: units.Second, Op: trace.Read, Addr: 0, Size: 2 * units.KB})
	if m1.reads != before+1 {
		t.Errorf("live member served %d shares, want 1", m1.reads-before)
	}
	if m0.reads != 0 {
		t.Error("dead member served a read")
	}
	// The dead share's completion includes the exponential backoff
	// (500µs + 1000µs), later than the live 1ms share.
	if done < units.Second+1500*units.Microsecond {
		t.Errorf("dead share completed at %v without paying retry backoff", done)
	}
	rep := arr.FaultReport()
	if rep.Exhausted == 0 {
		t.Error("dead share not counted exhausted")
	}
}

func TestNewRejects(t *testing.T) {
	m := newFake("m", units.Millisecond)
	if _, err := New(Config{Mode: Stripe, BlockSize: units.KB}, []Member{{Dev: m}}); err == nil {
		t.Error("1-member stripe accepted")
	}
	if _, err := New(Config{Mode: Mirror, BlockSize: 0}, []Member{{Dev: m}}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(Config{Mode: Mirror, BlockSize: units.KB}, []Member{{}}); err == nil {
		t.Error("nil member device accepted")
	}
}
