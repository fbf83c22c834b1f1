package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mobilestorage/internal/array"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// arrayConfig returns a golden-trace run over the given array topology.
func arrayConfig(t *testing.T, spec string) Config {
	t.Helper()
	cfg := *goldenTrace(t)
	sp, err := array.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Array = sp
	cfg.FlashCardParams = device.IntelSeries2Measured()
	cfg.Disk = device.CU140Measured()
	cfg.SpinDown = 5 * units.Second
	return cfg
}

func TestRunArrayMirror(t *testing.T) {
	res, err := Run(arrayConfig(t, "mirror:2xflashcard"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Device != "mirror:2xintel-measured" {
		t.Errorf("device name %q", res.Device)
	}
	if res.HostBlocks == 0 || res.Erases == 0 {
		t.Errorf("mirror did no flash work: host=%d erases=%d", res.HostBlocks, res.Erases)
	}
	// Every write lands on both replicas: the mirror must write at least
	// twice the host blocks a single card would.
	single := arrayConfig(t, "mirror:2xflashcard")
	single.Array = nil
	single.Kind = FlashCard
	base, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostBlocks < 2*base.HostBlocks {
		t.Errorf("mirror host blocks %d < 2× single-card %d", res.HostBlocks, base.HostBlocks)
	}
	if res.EnergyByComponent["storage"] <= base.EnergyByComponent["storage"] {
		t.Errorf("mirror storage energy %.1f J not above single card %.1f J",
			res.EnergyByComponent["storage"], base.EnergyByComponent["storage"])
	}
}

func TestRunArrayStripe(t *testing.T) {
	res, err := Run(arrayConfig(t, "stripe:3xflashcard"))
	if err != nil {
		t.Fatal(err)
	}
	if res.HostBlocks == 0 {
		t.Error("stripe did no flash work")
	}
	if res.MeasuredOps == 0 {
		t.Error("no measured operations")
	}
}

func TestRunArrayMirrorDiskFlash(t *testing.T) {
	res, err := Run(arrayConfig(t, "mirror:flashcard+disk"))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredOps == 0 {
		t.Error("no measured operations")
	}
	if res.EnergyByComponent["storage"] <= 0 {
		t.Error("no storage energy recorded")
	}
}

// TestArrayDeterminism: identical config and seeds must reproduce the event
// stream and fault report byte for byte, member deaths included.
func TestArrayDeterminism(t *testing.T) {
	mk := func() Config {
		cfg := arrayConfig(t, "mirror:2xflashcard")
		dur := int64(cfg.Trace.Duration())
		cfg.MemberFaults = fault.PlanSet{
			"m0": {DieAtUs: dur / 2},
			"*":  {LatentErrorRate: 0.05},
		}
		cfg.Faults = &fault.Plan{PowerFailAtUs: []int64{3 * dur / 4}}
		cfg.FaultSeed = 42
		return cfg
	}
	r1, _, ev1, n1 := runObserved(t, mk())
	r2, _, ev2, n2 := runObserved(t, mk())
	if n1 != n2 || !bytes.Equal(ev1, ev2) {
		t.Error("event streams not byte-identical across identical array runs")
	}
	if !reflect.DeepEqual(r1.Faults, r2.Faults) {
		t.Errorf("fault reports differ:\n%+v\n%+v", r1.Faults, r2.Faults)
	}
	if r1.EnergyJ != r2.EnergyJ || r1.EndTime != r2.EndTime {
		t.Error("results differ across identical array runs")
	}
}

// TestArrayMirrorMemberDeathLosesNothing is the headline degraded-mode
// scenario: one mirror member dies mid-trace, the array degrades, rebuilds
// onto a replacement, and finishes the trace with zero lost acknowledged
// writes — proved by the acked-write ledger at death, at every recovery,
// and by the absence of violations.
func TestArrayMirrorMemberDeathLosesNothing(t *testing.T) {
	cfg := arrayConfig(t, "mirror:2xflashcard")
	dur := int64(cfg.Trace.Duration())
	cfg.MemberFaults = fault.PlanSet{"m0": {DieAtUs: dur / 2}}
	cfg.FaultSeed = 7
	res, _, events, _ := runObserved(t, cfg)

	rep := res.Faults
	if rep == nil {
		t.Fatal("no fault report")
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("acked writes lost across member death:\n%s", rep.Violations)
	}
	if rep.DeviceDeaths != 1 {
		t.Errorf("device deaths = %d, want 1", rep.DeviceDeaths)
	}
	if rep.Rebuilds != 1 || rep.RebuildTime <= 0 {
		t.Errorf("rebuilds = %d (time %d), want exactly one timed rebuild", rep.Rebuilds, rep.RebuildTime)
	}
	for _, kind := range []string{`"device.die"`, `"array.degraded"`, `"array.rebuild"`} {
		if !bytes.Contains(events, []byte(`"kind":`+kind)) {
			t.Errorf("event stream missing %s", kind)
		}
	}
}

// TestArrayMirrorDeathPlusPowerFailure stacks both fault domains: a member
// death and later system power failures. Recovery must re-prove the
// acked-write invariant against the survivors every time.
func TestArrayMirrorDeathPlusPowerFailure(t *testing.T) {
	cfg := arrayConfig(t, "mirror:2xflashcard")
	dur := int64(cfg.Trace.Duration())
	cfg.MemberFaults = fault.PlanSet{"m1": {DieAtUs: dur / 3}}
	cfg.Faults = &fault.Plan{PowerFailAtUs: []int64{dur / 2, 5 * dur / 6}}
	cfg.FaultSeed = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Faults
	if len(rep.Violations) != 0 {
		t.Fatalf("violations:\n%s", rep.Violations)
	}
	if rep.PowerFailures != 2 || rep.DeviceDeaths != 1 {
		t.Errorf("power failures = %d deaths = %d, want 2 and 1", rep.PowerFailures, rep.DeviceDeaths)
	}
	if rep.LostWrites != 0 {
		t.Errorf("lost %d acknowledged writes", rep.LostWrites)
	}
}

// TestArrayStripeDeathDegrades: a striped array has no redundancy, so a
// member death leaves the dead shares paying the bounded retry/backoff
// schedule (counted exhausted) while the run still completes.
func TestArrayStripeDeathDegrades(t *testing.T) {
	cfg := arrayConfig(t, "stripe:2xflashcard")
	dur := int64(cfg.Trace.Duration())
	cfg.MemberFaults = fault.PlanSet{"m0": {DieAtUs: dur / 2, MaxRetries: 2, BackoffUs: 100, MaxBackoffUs: 1000}}
	res, _, events, _ := runObserved(t, cfg)
	rep := res.Faults
	if rep.DeviceDeaths != 1 {
		t.Fatalf("device deaths = %d, want 1", rep.DeviceDeaths)
	}
	if rep.Rebuilds != 0 {
		t.Errorf("stripe rebuilt %d members; stripes have no redundancy to rebuild from", rep.Rebuilds)
	}
	if rep.Exhausted == 0 || rep.BackoffTime == 0 {
		t.Errorf("dead stripe shares must exhaust retries with backoff: exhausted=%d backoff=%d",
			rep.Exhausted, rep.BackoffTime)
	}
	if !bytes.Contains(events, []byte(`"kind":"array.degraded"`)) {
		t.Error("no array.degraded event")
	}
}

// TestArrayEraseDeath kills a member by endurance rather than schedule.
func TestArrayEraseDeath(t *testing.T) {
	cfg := arrayConfig(t, "mirror:2xflashcard")
	cfg.MemberFaults = fault.PlanSet{"m0": {DieAfterErases: 20}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Faults
	if rep.DeviceDeaths != 1 {
		t.Fatalf("device deaths = %d, want 1 (erase threshold 20 not reached?)", rep.DeviceDeaths)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations:\n%s", rep.Violations)
	}
}

// TestArrayLatentReadFaults seeds write-time latent faults on both mirror
// members and checks they surface on later reads as scrub penalties.
func TestArrayLatentReadFaults(t *testing.T) {
	cfg := arrayConfig(t, "mirror:2xflashcard")
	cfg.MemberFaults = fault.PlanSet{"*": {LatentErrorRate: 0.10}}
	cfg.FaultSeed = 11
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Faults
	if rep.LatentSeeded == 0 {
		t.Fatal("no latent faults seeded at 10% write rate")
	}
	if rep.LatentFaults == 0 {
		t.Error("seeded latent faults never surfaced on reads")
	}
	clean := arrayConfig(t, "mirror:2xflashcard")
	base, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Read.Mean() < base.Read.Mean() {
		t.Errorf("latent-faulted read mean %.3f ms below clean %.3f ms", res.Read.Mean(), base.Read.Mean())
	}
}

// TestCleaningBacklogCarryRegression compares recovery timelines with and
// without crash-carried cleaning backlog on a single flash card: with
// carry_cleaning_backlog the in-flight cleaning job survives the power
// failure and drains during recovery (cleaning.backlog event, BacklogTime
// on the report); without it the historical semantics — job discarded, no
// backlog — must be byte-identical to before the feature existed.
func TestCleaningBacklogCarryRegression(t *testing.T) {
	tr, err := workload.Synth(workload.SynthConfig{Seed: 7, Ops: 4000})
	if err != nil {
		t.Fatal(err)
	}
	dur := int64(tr.Duration())
	// Many crash instants so at least one lands while the cleaner holds an
	// in-flight job; high utilization keeps the cleaner busy.
	var fails []int64
	for i := int64(1); i <= 12; i++ {
		fails = append(fails, i*dur/13)
	}
	mk := func(carry bool) Config {
		return Config{
			Trace:            tr,
			DRAMBytes:        512 * units.KB,
			Kind:             FlashCard,
			FlashCardParams:  device.IntelSeries2Measured(),
			FlashUtilization: 0.90,
			Faults:           &fault.Plan{PowerFailAtUs: fails, CarryCleaningBacklog: carry},
			FaultSeed:        5,
		}
	}
	carried, _, evCarried, _ := runObserved(t, mk(true))
	dropped, _, evDropped, _ := runObserved(t, mk(false))

	crep, drep := carried.Faults, dropped.Faults
	if len(crep.Violations)+len(drep.Violations) != 0 {
		t.Fatalf("violations:\ncarry: %v\ndrop: %v", crep.Violations, drep.Violations)
	}
	if crep.BacklogCarried == 0 || crep.BacklogTime <= 0 {
		t.Fatalf("no backlog carried across %d crashes (carried=%d, time=%d); tune the schedule",
			len(fails), crep.BacklogCarried, crep.BacklogTime)
	}
	if drep.BacklogCarried != 0 || drep.BacklogTime != 0 {
		t.Errorf("carry disabled but backlog recorded: carried=%d time=%d", drep.BacklogCarried, drep.BacklogTime)
	}
	if !bytes.Contains(evCarried, []byte(`"kind":"cleaning.backlog"`)) {
		t.Error("carried run emitted no cleaning.backlog event")
	}
	if bytes.Contains(evDropped, []byte(`"kind":"cleaning.backlog"`)) {
		t.Error("dropped run emitted a cleaning.backlog event")
	}
}

// FuzzArrayRecovery fuzzes a mirror member death against a system power
// failure (either order, any timing) with latent faults and backlog
// carryover in play: whatever the interleaving, recovery must complete with
// zero invariant violations and zero lost acknowledged writes.
func FuzzArrayRecovery(f *testing.F) {
	f.Add(int64(1), int64(10_000_000), int64(60_000_000), false)
	f.Add(int64(2), int64(90_000_000), int64(30_000_000), true)
	f.Add(int64(3), int64(0), int64(0), true)
	f.Add(int64(-4), int64(1<<40), int64(17), false)
	f.Fuzz(func(t *testing.T, seed, dieAt, failAt int64, stripe bool) {
		tr, err := workload.Synth(workload.SynthConfig{Seed: 11, Ops: 600})
		if err != nil {
			t.Fatal(err)
		}
		clamp := func(v int64) int64 {
			if v < 0 {
				v = -v
			}
			if v < 0 { // MinInt64
				v = 0
			}
			return v % (2 * int64(tr.Duration()))
		}
		spec := "mirror:2xflashcard"
		if stripe {
			spec = "stripe:2xflashcard"
		}
		sp, err := array.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Trace:           tr,
			DRAMBytes:       256 * units.KB,
			Array:           sp,
			FlashCardParams: device.IntelSeries2Measured(),
			MemberFaults: fault.PlanSet{
				"m0": {DieAtUs: clamp(dieAt), LatentErrorRate: 0.02, CarryCleaningBacklog: true},
				"m1": {LatentErrorRate: 0.02, CarryCleaningBacklog: true},
			},
			Faults:    &fault.Plan{PowerFailAtUs: []int64{clamp(failAt)}},
			FaultSeed: seed,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Faults.Violations) != 0 {
			t.Fatalf("%s: recovery invariant violations:\n%s", spec, res.Faults.Violations)
		}
		if res.Faults.LostWrites != 0 {
			t.Fatalf("%s: lost %d acknowledged writes", spec, res.Faults.LostWrites)
		}
	})
}

// TestMemberFaultsBeyondArrayRejected: a plan keyed to a member the array
// does not have would never be looked up, so the run would silently go
// without it. Both replay loops must reject it, naming the key and the
// member count; a plan for the last member and the "*" default still run.
func TestMemberFaultsBeyondArrayRejected(t *testing.T) {
	for _, ref := range []bool{false, true} {
		for _, c := range []struct {
			key     string
			wantErr bool
		}{{"m1", false}, {"*", false}, {"m2", true}, {"m16", true}} {
			cfg := arrayConfig(t, "mirror:2xflashcard")
			cfg.Reference = ref
			cfg.MemberFaults = fault.PlanSet{"m0": {}, c.key: {DieAtUs: int64(cfg.Trace.Duration()) / 2}}
			res, err := Run(cfg)
			switch {
			case !c.wantErr && err != nil:
				t.Errorf("%s (reference %v): %v", c.key, ref, err)
			case !c.wantErr && res.Faults.DeviceDeaths != 1:
				t.Errorf("%s (reference %v): %d device deaths, want 1", c.key, ref, res.Faults.DeviceDeaths)
			case c.wantErr && err == nil:
				t.Errorf("%s (reference %v): accepted on a 2-member mirror", c.key, ref)
			case c.wantErr && !strings.Contains(err.Error(), `"`+c.key+`"`) || c.wantErr && !strings.Contains(err.Error(), "it has 2 (m0 to m1)"):
				t.Errorf("%s (reference %v): error %q does not name the key and the member count", c.key, ref, err)
			}
		}
	}
}
