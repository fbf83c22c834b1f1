package flashcard

import (
	"math"
	"testing"

	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/units"
)

// churn overwrites the same blocks repeatedly with widely spaced writes so
// every card runs the identical logical workload (cleaning is driven purely
// by space pressure, not timing).
func churn(c *Card, rounds int) {
	at := units.Time(0)
	for r := 0; r < rounds; r++ {
		for b := units.Bytes(0); b < 16; b++ {
			at = c.Access(wr(at, b*units.KB, units.KB)) + units.Minute
		}
	}
}

// TestEraseRetryChargesWearPerPulse pins the satellite fix on the flash
// card: a failed erase pulse stresses the cells like a successful one, so
// each clean's segment-erase count and erase energy scale with the physical
// pulse count, not with the logical erase.
func TestEraseRetryChargesWearPerPulse(t *testing.T) {
	base := newCard(t, 4, WithOnDemandCleaning())
	churn(base, 20)
	baseErases := base.TotalErases()
	baseEraseJ := base.Meter().StateJ(energy.StateErase)
	if baseErases == 0 {
		t.Fatal("baseline churn never cleaned")
	}

	in := fault.NewInjector(&fault.Plan{
		EraseErrorRate: 1, MaxRetries: 1, BackoffUs: 500, MaxBackoffUs: 500,
	}, 1, nil)
	c := newCard(t, 4, WithOnDemandCleaning(), WithFaults(in))
	churn(c, 20)

	// Rate 1 with MaxRetries 1 forces exactly 2 pulses per erase.
	const pulses = 2
	if got := c.TotalErases(); got != pulses*baseErases {
		t.Errorf("erase count = %d, want %d (wear per physical pulse)", got, pulses*baseErases)
	}
	// Erase energy: (2 pulses × EraseTime + 500µs backoff) × EraseW per
	// clean, against EraseTime × EraseW per baseline clean.
	cleans := baseErases
	wantJ := float64(cleans) * (pulses*float64(params().EraseTime) + 500) * 1e-6 * params().EraseW
	if math.Abs(c.Meter().StateJ(energy.StateErase)-wantJ) > 1e-9 {
		t.Errorf("erase energy = %g J, want %g J", c.Meter().StateJ(energy.StateErase), wantJ)
	}
	if wantBase := float64(cleans) * float64(params().EraseTime) * 1e-6 * params().EraseW; math.Abs(baseEraseJ-wantBase) > 1e-9 {
		t.Errorf("baseline erase energy = %g J, want %g J", baseEraseJ, wantBase)
	}
	rep := in.Report()
	if rep.EraseFaults != pulses*cleans || rep.Exhausted != cleans {
		t.Errorf("report = %+v, want %d erase faults / %d exhausted", rep, pulses*cleans, cleans)
	}
}

// TestWriteRetryChargesPerAttempt pins host-write retry accounting: each
// failed program repeats the whole transfer at active power, with standby
// power across the backoff.
func TestWriteRetryChargesPerAttempt(t *testing.T) {
	base := newCard(t, 8)
	baseDone := base.Access(wr(0, 0, units.KB))

	in := fault.NewInjector(&fault.Plan{
		WriteErrorRate: 1, MaxRetries: 2, BackoffUs: 100, MaxBackoffUs: 200,
	}, 1, nil)
	c := newCard(t, 8, WithFaults(in))
	done := c.Access(wr(0, 0, units.KB))

	// 3 attempts with 100+200 µs backoff between them.
	if want := baseDone*3 + 300; done != want {
		t.Errorf("retried write completion = %v, want %v", done, want)
	}
	if got, want := c.Meter().StateJ(energy.StateActive), 3*base.Meter().StateJ(energy.StateActive); math.Abs(got-want) > 1e-12 {
		t.Errorf("active energy = %g J, want %g J", got, want)
	}
}

// TestWearOutRetiresSegments drives a card past its wear-out threshold and
// verifies bad-block retirement: spares absorb the first deaths, capacity
// degrades after, the card keeps working, and bookkeeping stays consistent.
func TestWearOutRetiresSegments(t *testing.T) {
	in := fault.NewInjector(&fault.Plan{WearOutAfter: 3, SpareSegments: 2}, 1, nil)
	// Provision the plan's spares on top of the baseline card size, as the
	// core's capacity derivation does.
	c, err := New(params(), units.Bytes(6+2)*8*units.KB, units.KB,
		WithOnDemandCleaning(), WithFaults(in))
	if err != nil {
		t.Fatal(err)
	}
	churn(c, 60)
	if int64(c.badSegs) == 0 {
		t.Fatal("churn never retired a segment")
	}
	rep := in.Report()
	if rep.Remaps == 0 {
		t.Error("no remaps recorded")
	}
	if rep.Remaps+rep.SparesExhausted < int64(c.badSegs) {
		t.Errorf("remaps (%d) + exhausted (%d) below retirements (%d)",
			rep.Remaps, rep.SparesExhausted, int64(c.badSegs))
	}
	if rep.Remaps > 2 {
		t.Errorf("%d remaps from only 2 spares", rep.Remaps)
	}
	if c.sparesLeft != 2-rep.Remaps {
		t.Errorf("spares left = %d, want %d", c.sparesLeft, 2-rep.Remaps)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Errorf("card inconsistent after wear-out: %v", err)
	}
	// The card must still accept writes at degraded capacity.
	c.Access(wr(1000*units.Minute, 0, units.KB))
}

// TestRetirementNeverStrandsLiveData fills a card almost completely, then
// wears it out: retirement must stop at the floor where the survivors still
// hold the live data plus the cleaning reserve, never wedging the card.
func TestRetirementNeverStrandsLiveData(t *testing.T) {
	in := fault.NewInjector(&fault.Plan{WearOutAfter: 2}, 1, nil)
	c := newCard(t, 8, WithOnDemandCleaning(), WithFaults(in))
	// 3 segments of live data on an 8-segment card.
	if err := c.Prefill(24 * units.KB); err != nil {
		t.Fatal(err)
	}
	at := units.Time(0)
	for r := 0; r < 100; r++ {
		for b := units.Bytes(0); b < 24; b++ {
			at = c.Access(wr(at, b*units.KB, units.KB)) + units.Minute
		}
	}
	usable := int64(c.nseg) - int64(c.badSegs)
	if usable < reserveSegments+2 {
		t.Errorf("retirement broke the structural floor: %d usable segments", usable)
	}
	if c.LiveBlocks() != 24 {
		t.Errorf("live blocks = %d, want 24", c.LiveBlocks())
	}
	if err := c.CheckConsistency(); err != nil {
		t.Errorf("card inconsistent: %v", err)
	}
	if rep := in.Report(); rep.SparesExhausted == 0 {
		t.Error("no capacity-exhaustion events recorded despite zero spares")
	}
}

// TestReclaimUnderCapacityPressure pins the overcommit valve: retirement
// passes canRetire while the live set is small, then the workload grows its
// live set past what the surviving segments can sustain. The card must
// press retired segments back into service (Report.Reclaims) instead of
// wedging with no erased space and no cleanable victim.
func TestReclaimUnderCapacityPressure(t *testing.T) {
	in := fault.NewInjector(&fault.Plan{WearOutAfter: 1}, 1, nil)
	c := newCard(t, 8, WithOnDemandCleaning(), WithFaults(in))

	// Phase 1: one segment of live data, churned until retirement stalls at
	// the capacity floor for THIS live set.
	at := units.Time(0)
	for r := 0; r < 40; r++ {
		for b := units.Bytes(0); b < 8; b++ {
			at = c.Access(wr(at, b*units.KB, units.KB)) + units.Minute
		}
	}
	retired := int64(c.badSegs)
	if retired == 0 {
		t.Fatal("phase 1 never retired a segment")
	}

	// Phase 2: grow the live set to 42 blocks. With bad retired segments the
	// sustainable live set under the 2-segment cleaning reserve is
	// (8-bad-2)*8 = 48-8·bad blocks, below 42 for any bad ≥ 1 — the squeeze
	// is guaranteed whatever phase 1 managed to retire.
	for b := units.Bytes(8); b < 42; b++ {
		at = c.Access(wr(at, b*units.KB, units.KB)) + units.Minute
	}
	// Churn the grown set so cleaning runs at the new pressure.
	for r := 0; r < 10; r++ {
		for b := units.Bytes(0); b < 42; b++ {
			at = c.Access(wr(at, b*units.KB, units.KB)) + units.Minute
		}
	}

	rep := in.Report()
	if rep.Reclaims == 0 {
		t.Error("overcommitted card never reclaimed a retired segment")
	}
	if int64(c.badSegs) >= retired {
		t.Errorf("bad segments %d → %d: reclaim did not return capacity", retired, int64(c.badSegs))
	}
	if got := c.LiveBlocks(); got != 42 {
		t.Errorf("live blocks = %d, want 42", got)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Errorf("card inconsistent after reclaim: %v", err)
	}
}

// TestCrashDropsCleaningJobSafely starts a clean, crashes mid-job, and
// verifies the copy-then-erase atomicity: no live block is lost, the victim
// is still intact (the erase never happened), and recovery passes the
// consistency check.
func TestCrashDropsCleaningJobSafely(t *testing.T) {
	in := fault.NewInjector(&fault.Plan{PowerFailAtUs: []int64{1}}, 1, nil)
	c := newCard(t, 4, WithFaults(in))
	churn(c, 3)
	live := c.LiveBlocks()

	// Nudge the background cleaner into a job and let it run partway.
	at := 1000 * units.Minute
	c.Idle(at)
	c.Idle(at + 10*units.Millisecond) // EraseTime is 100 ms: job cannot finish
	if c.job == nil {
		// The cleaner may have satisfied its reserve; force a job.
		c.startJob(at + 10*units.Millisecond)
	}
	if c.job != nil && c.job.remaining == 0 {
		t.Fatal("test setup: job already complete")
	}
	crashAt := at + 20*units.Millisecond
	c.Crash(crashAt)
	if c.job != nil {
		t.Error("in-flight cleaning job survived the crash")
	}
	done := c.Recover(crashAt)
	if done <= crashAt {
		t.Error("recovery scan took no time")
	}
	if got := c.LiveBlocks(); got != live {
		t.Errorf("live blocks %d → %d across crash", live, got)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Errorf("card inconsistent after crash: %v", err)
	}
	if v := in.Report().Violations; len(v) != 0 {
		t.Errorf("recovery violations: %v", v)
	}
}
