package flashcard

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// params returns a small round-number card: 8 KB segments of 1 KB blocks,
// 100 ms erases, so scenarios stay tractable.
func params() device.FlashCardParams {
	return device.FlashCardParams{
		Name:            "toy",
		Source:          device.Datasheet,
		ReadKBs:         8192,
		WriteKBs:        1024,
		EraseTime:       100 * units.Millisecond,
		SegmentSize:     8 * units.KB,
		ActiveW:         0.5,
		EraseW:          0.2,
		StandbyW:        0.001,
		EnduranceCycles: 1000,
	}
}

func newCard(t *testing.T, segments int, opts ...Option) *Card {
	t.Helper()
	c, err := New(params(), units.Bytes(segments)*8*units.KB, units.KB, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func wr(at units.Time, addr, size units.Bytes) device.Request {
	return device.Request{Time: at, Op: trace.Write, Addr: addr, Size: size}
}

func TestWriteTime(t *testing.T) {
	c := newCard(t, 8)
	// 1 KB at 1024 KB/s ≈ 977 µs, no stall on an empty card.
	done := c.Access(wr(0, 0, units.KB))
	if done != 977 {
		t.Errorf("write completion = %v µs, want 977", done)
	}
	if c.Stalls() != 0 {
		t.Error("write stalled on an empty card")
	}
}

func TestReadTime(t *testing.T) {
	c := newCard(t, 8)
	c.Access(wr(0, 0, units.KB))
	start := units.Second
	done := c.Access(device.Request{Time: start, Op: trace.Read, Addr: 0, Size: 8 * units.KB})
	want := units.TransferTime(8*units.KB, 8192)
	if done-start != want {
		t.Errorf("read service = %v, want %v", done-start, want)
	}
}

func TestPrefillBounds(t *testing.T) {
	c := newCard(t, 8) // 64 KB total, 2 segments reserved
	if err := c.Prefill(48 * units.KB); err != nil {
		t.Errorf("prefill within bounds failed: %v", err)
	}
	c2 := newCard(t, 8)
	if err := c2.Prefill(56 * units.KB); err == nil {
		t.Error("prefill into the reserve accepted")
	}
	if err := c.Prefill(units.KB); err == nil {
		t.Error("second prefill accepted")
	}
	if got := c.LiveBlocks(); got != 48 {
		t.Errorf("live blocks = %d, want 48", got)
	}
	if u := c.Utilization(); math.Abs(u-0.75) > 1e-9 {
		t.Errorf("utilization = %g, want 0.75", u)
	}
}

func TestOverwriteInvalidates(t *testing.T) {
	c := newCard(t, 8)
	c.Access(wr(0, 0, 4*units.KB))
	if got := c.LiveBlocks(); got != 4 {
		t.Fatalf("live = %d, want 4", got)
	}
	// Overwriting the same logical blocks must not grow liveness.
	c.Access(wr(units.Second, 0, 4*units.KB))
	if got := c.LiveBlocks(); got != 4 {
		t.Errorf("live after overwrite = %d, want 4", got)
	}
	if got := c.HostBlocks(); got != 8 {
		t.Errorf("host blocks = %d, want 8", got)
	}
}

func TestDeleteInvalidates(t *testing.T) {
	c := newCard(t, 8)
	c.Access(wr(0, 0, 4*units.KB))
	c.Access(device.Request{Time: units.Second, Op: trace.Delete, Addr: 0, Size: 4 * units.KB})
	if got := c.LiveBlocks(); got != 0 {
		t.Errorf("live after delete = %d, want 0", got)
	}
}

// TestBackgroundReadsAreNotHostTime: a host read adds its service time to
// HostTime; the same read issued in the background (a mirror-rebuild copy,
// a hybrid cache install) leaves HostTime unchanged.
func TestBackgroundReadsAreNotHostTime(t *testing.T) {
	c := newCard(t, 8)
	c.Access(wr(0, 0, 8*units.KB))
	before := c.HostTime()
	rd := device.Request{Time: units.Second, Op: trace.Read, Addr: 0, Size: 8 * units.KB}
	done := c.Background(rd)
	if done <= rd.Time {
		t.Fatalf("background read completed at %v, not after its start %v", done, rd.Time)
	}
	if got := c.HostTime(); got != before {
		t.Errorf("HostTime after a background read = %v, want %v", got, before)
	}
	rd.Time = 2 * units.Second
	done = c.Access(rd)
	if got, want := c.HostTime(), before+(done-rd.Time); got != want {
		t.Errorf("HostTime after a host read = %v, want %v", got, want)
	}
}

func TestBackgroundCleaningDuringIdle(t *testing.T) {
	c := newCard(t, 4) // 32 KB
	// Rewrite the same 8 KB three times: two wholly-invalid segments pile
	// up and the erased pool drops below the reserve.
	c.Access(wr(0, 0, 8*units.KB))
	c.Access(wr(units.Second, 0, 8*units.KB))
	c.Access(wr(2*units.Second, 0, 8*units.KB))
	if c.TotalErases() != 0 {
		t.Fatal("erased before any idle time")
	}
	// Idle long enough for cleaning (no copies needed: victims dead).
	c.Idle(10 * units.Second)
	if c.TotalErases() == 0 {
		t.Errorf("no erases after idle")
	}
	if c.CopiedBlocks() != 0 {
		t.Errorf("copied %d blocks from fully dead victims", c.CopiedBlocks())
	}
	if j := c.Meter().StateJ(energy.StateErase); j <= 0 {
		t.Error("no erase energy charged")
	}
}

func TestSynchronousStallWhenNoSpace(t *testing.T) {
	stalls := obs.NewCollector(obs.Kinds(obs.EvCardStall))
	c := newCard(t, 4, WithOnDemandCleaning(), WithScope(obs.NewScope(nil, stalls)))
	// Rewrite the same 8 KB until the erased pool is exhausted; the write
	// that finds no erased segment must wait for an on-demand clean.
	var clock units.Time
	for i := 0; i < 6; i++ {
		clock = c.Access(wr(clock, 0, 8*units.KB))
	}
	if c.Stalls() == 0 {
		t.Fatalf("no stall despite exhausted space (last completion %v)", clock)
	}
	var stall units.Time
	for _, e := range stalls.Events() {
		stall += units.Time(e.Dur)
	}
	if stall < c.Params().EraseTime {
		t.Errorf("stall %v shorter than one erase", stall)
	}
	if c.TotalErases() == 0 {
		t.Error("on-demand cleaning did not erase")
	}
}

func TestCleanerPreservesLiveData(t *testing.T) {
	c := newCard(t, 6)
	if err := c.Prefill(24 * units.KB); err != nil {
		t.Fatal(err)
	}
	var clock units.Time
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		clock += 200 * units.Millisecond
		addr := units.Bytes(rng.Intn(24)) * units.KB
		clock = c.Access(wr(clock, addr, units.KB))
	}
	if got := c.LiveBlocks(); got != 24 {
		t.Errorf("live blocks = %d, want 24 (cleaning lost or duplicated data)", got)
	}
}

// TestInvariantsUnderRandomOps is the main property test: after any random
// mix of writes, deletes, and idle periods, the card's accounting is
// consistent:
//   - sum of segment live counts equals the number of live logical blocks;
//   - no segment holds more live blocks than its capacity;
//   - erase counts are non-negative and sum to TotalErases;
//   - utilization never exceeds 1.
func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(params(), 10*8*units.KB, units.KB)
		if err != nil {
			return false
		}
		if err := c.Prefill(40 * units.KB); err != nil {
			return false
		}
		live := map[int64]bool{}
		for b := int64(0); b < 40; b++ {
			live[b] = true
		}
		var clock units.Time
		for i := 0; i < 300; i++ {
			clock += units.Time(rng.Intn(400)) * units.Millisecond
			blk := int64(rng.Intn(40))
			n := rng.Intn(4) + 1
			switch rng.Intn(5) {
			case 0: // delete a range
				c.Access(device.Request{Time: clock, Op: trace.Delete,
					Addr: units.Bytes(blk) * units.KB, Size: units.Bytes(n) * units.KB})
				for j := int64(0); j < int64(n) && blk+j < 40; j++ {
					live[blk+j] = false
				}
			default: // write a range
				if blk+int64(n) > 40 {
					n = int(40 - blk)
				}
				clock = c.Access(wr(clock, units.Bytes(blk)*units.KB, units.Bytes(n)*units.KB))
				for j := int64(0); j < int64(n); j++ {
					live[blk+j] = true
				}
			}
		}
		var wantLive int64
		for _, ok := range live {
			if ok {
				wantLive++
			}
		}
		if c.LiveBlocks() != wantLive {
			return false
		}
		var eraseSum, eraseMax int64
		counts := c.EraseCounts()
		for _, e := range counts {
			if e < 0 {
				return false
			}
			eraseSum += e
			eraseMax = max(eraseMax, e)
		}
		if c.Wear() != (device.Wear{Sum: eraseSum, Max: eraseMax, Units: int64(len(counts))}) {
			return false
		}
		return eraseSum == c.TotalErases() && c.Utilization() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHighUtilizationCostsMore(t *testing.T) {
	run := func(prefill units.Bytes) (stalls int64, erases int64) {
		c, err := New(params(), 32*8*units.KB, units.KB) // 256 KB card
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Prefill(prefill); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		blocks := int64(prefill / units.KB)
		var clock units.Time
		for i := 0; i < 2000; i++ {
			clock += 5 * units.Millisecond // dense: little idle for cleaning
			addr := units.Bytes(rng.Int63n(blocks)) * units.KB
			clock = c.Access(wr(clock, addr, units.KB))
		}
		return c.Stalls(), c.TotalErases()
	}
	lowStalls, lowErases := run(102 * units.KB)   // 40%
	highStalls, highErases := run(238 * units.KB) // 95%
	if highErases <= lowErases {
		t.Errorf("erases at 95%% (%d) not above 40%% (%d)", highErases, lowErases)
	}
	if highStalls < lowStalls {
		t.Errorf("stalls at 95%% (%d) below 40%% (%d)", highStalls, lowStalls)
	}
}

func TestPolicies(t *testing.T) {
	pols := Policies()
	for _, name := range []string{"greedy", "cost-benefit", "fifo"} {
		if _, ok := pols[name]; !ok {
			t.Errorf("policy %q missing", name)
		}
	}
	// All policies must keep data intact under churn.
	for name, pol := range pols {
		c, err := New(params(), 10*8*units.KB, units.KB, WithPolicy(pol))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Prefill(40 * units.KB); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		var clock units.Time
		for i := 0; i < 1000; i++ {
			clock += 150 * units.Millisecond
			clock = c.Access(wr(clock, units.Bytes(rng.Intn(40))*units.KB, units.KB))
		}
		if got := c.LiveBlocks(); got != 40 {
			t.Errorf("%s: live = %d, want 40", name, got)
		}
		if c.TotalErases() == 0 {
			t.Errorf("%s: no cleaning happened", name)
		}
	}
}

func TestFIFOWearLevelsBetterThanGreedy(t *testing.T) {
	maxWear := func(pol Policy) int64 {
		c, _ := New(params(), 12*8*units.KB, units.KB, WithPolicy(pol))
		if err := c.Prefill(80 * units.KB); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		var clock units.Time
		for i := 0; i < 4000; i++ {
			clock += 120 * units.Millisecond
			// Skewed: 90% of writes to 10% of blocks.
			var blk int
			if rng.Float64() < 0.9 {
				blk = rng.Intn(8)
			} else {
				blk = 8 + rng.Intn(72)
			}
			clock = c.Access(wr(clock, units.Bytes(blk)*units.KB, units.KB))
		}
		var mx int64
		for _, e := range c.EraseCounts() {
			if e > mx {
				mx = e
			}
		}
		return mx
	}
	greedy := maxWear(GreedyPolicy{})
	fifo := maxWear(FIFOPolicy{})
	if fifo > greedy {
		t.Errorf("FIFO max wear %d worse than greedy %d", fifo, greedy)
	}
}

func TestConstructionErrors(t *testing.T) {
	p := params()
	if _, err := New(p, 2*8*units.KB, units.KB); err == nil {
		t.Error("too-small card accepted")
	}
	if _, err := New(p, units.MB, 3*units.KB); err == nil {
		t.Error("non-dividing block size accepted")
	}
	if _, err := New(p, units.MB, 16*units.KB); err == nil {
		t.Error("block size above segment size accepted")
	}
	p.WriteKBs = 0
	if _, err := New(p, units.MB, units.KB); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestName(t *testing.T) {
	c := newCard(t, 8)
	if c.Name() != "toy-datasheet" {
		t.Errorf("Name = %q", c.Name())
	}
	if c.capacity != 64*units.KB {
		t.Errorf("capacity = %v", c.capacity)
	}
}

func TestWearLevelingBoundsSpread(t *testing.T) {
	run := func(opts ...Option) (maxWear, minWear int64, copies int64) {
		c, err := New(params(), 16*8*units.KB, units.KB, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Prefill(100 * units.KB); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		var clock units.Time
		for i := 0; i < 6000; i++ {
			clock += 120 * units.Millisecond
			// Heavy skew: almost all writes to 8 of 100 blocks; the rest of
			// the card is cold and, without leveling, never erased.
			blk := rng.Intn(8)
			if rng.Float64() < 0.05 {
				blk = 8 + rng.Intn(92)
			}
			clock = c.Access(wr(clock, units.Bytes(blk)*units.KB, units.KB))
		}
		counts := c.EraseCounts()
		minWear = counts[0]
		for _, e := range counts {
			if e > maxWear {
				maxWear = e
			}
			if e < minWear {
				minWear = e
			}
		}
		return maxWear, minWear, c.CopiedBlocks()
	}
	maxPlain, minPlain, copiesPlain := run()
	maxLevel, minLevel, copiesLevel := run(WithWearLeveling(4))
	if spreadP, spreadL := maxPlain-minPlain, maxLevel-minLevel; spreadL >= spreadP {
		t.Errorf("leveling spread %d not below plain %d", spreadL, spreadP)
	}
	if copiesLevel <= copiesPlain {
		t.Errorf("leveling copied %d blocks, plain %d — leveling should cost copies", copiesLevel, copiesPlain)
	}
	// Leveling preserves data like everything else.
	_ = minLevel
}
