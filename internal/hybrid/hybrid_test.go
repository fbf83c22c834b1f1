package hybrid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mobilestorage/internal/device"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

func cfg() Config {
	return Config{
		Disk:      device.CU140Datasheet(),
		SpinDown:  5 * units.Second,
		Card:      device.IntelSeries2Datasheet(),
		CacheSize: 512 * units.KB,
		BlockSize: units.KB,
	}
}

func rd(at units.Time, addr, size units.Bytes) device.Request {
	return device.Request{Time: at, Op: trace.Read, File: 1, Addr: addr, Size: size}
}

func wr(at units.Time, addr, size units.Bytes) device.Request {
	return device.Request{Time: at, Op: trace.Write, File: 1, Addr: addr, Size: size}
}

// newCounted builds a cache whose counters land in the returned registry.
func newCounted(t *testing.T, conf Config) (*Cache, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	conf.Scope = obs.NewScope(reg, nil)
	c, err := New(conf)
	if err != nil {
		t.Fatal(err)
	}
	return c, reg
}

func TestReadMissGoesToDiskThenHits(t *testing.T) {
	c, reg := newCounted(t, cfg())
	// First read: disk speed (tens of ms).
	miss := c.Access(rd(0, 0, units.KB))
	if miss < 20*units.Millisecond {
		t.Errorf("miss served in %v, faster than the disk", miss)
	}
	// Second read of the same block: flash speed (sub-ms).
	start := miss + units.Second
	hit := c.Access(rd(start, 0, units.KB)) - start
	if hit > units.Millisecond {
		t.Errorf("hit took %v, want flash speed", hit)
	}
	if hits, misses := reg.Counter("hybrid.hits").Value(), reg.Counter("hybrid.misses").Value(); hits != 1 || misses != 1 {
		t.Errorf("%d hits, %d misses, want one each", hits, misses)
	}
}

func TestWritesDoNotWakeTheDisk(t *testing.T) {
	c, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	// Let the disk spin down, then write below the destage high-water mark.
	c.Idle(10 * units.Second)
	var clock units.Time = 10 * units.Second
	for i := 0; i < 16; i++ {
		clock = c.Access(wr(clock+units.Second, units.Bytes(i)*units.KB, units.KB))
	}
	if got := c.dsk.SpinUps(); got != 0 {
		t.Errorf("writes below high water spun the disk up %d times", got)
	}
	// Write service is flash-fast.
	before := clock + units.Second
	after := c.Access(wr(before, 100*units.KB, units.KB))
	// 1 KB at the card's 214 KB/s is ≈4.7 ms — flash speed, no spin-up.
	if after-before > 6*units.Millisecond {
		t.Errorf("hybrid write took %v", after-before)
	}
}

func TestDestageAtHighWater(t *testing.T) {
	c, reg := newCounted(t, cfg())
	// Dirty more than 25% of the 512-block cache.
	var clock units.Time
	for i := 0; i < 140; i++ {
		clock = c.Access(wr(clock+100*units.Millisecond, units.Bytes(i)*units.KB, units.KB))
	}
	destages := reg.Counter("hybrid.destages").Value()
	if destages == 0 {
		t.Error("no destage despite crossing the high-water mark")
	}
	// Destaged data woke the disk (once per batch, not per block).
	if ups := c.dsk.SpinUps(); ups == 0 || ups > destages+1 {
		t.Errorf("spinUps = %d for %d destages", ups, destages)
	}
}

func TestEvictionPrefersClean(t *testing.T) {
	small := cfg()
	small.CacheSize = 16 * units.KB // 16 blocks
	c, reg := newCounted(t, small)
	var clock units.Time
	// Fill with clean blocks (reads), then stream more reads through:
	// evictions must not touch the disk beyond the misses themselves.
	for i := 0; i < 64; i++ {
		clock = c.Access(rd(clock+units.Second, units.Bytes(i)*units.KB, units.KB))
	}
	if hits := reg.Counter("hybrid.hits").Value(); hits != 0 {
		t.Errorf("%d hits on a pure-miss stream", hits)
	}
}

func TestDeleteInvalidates(t *testing.T) {
	c, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	c.Access(wr(0, 0, 4*units.KB))
	c.Access(device.Request{Time: units.Second, Op: trace.Delete, Addr: 0, Size: 4 * units.KB})
	// Re-read misses (goes to disk).
	resp := c.Access(rd(2*units.Second, 0, units.KB)) - 2*units.Second
	if resp < units.Millisecond {
		t.Errorf("read of deleted block served from cache (%v)", resp)
	}
}

func TestEnergyCombinesComponents(t *testing.T) {
	c, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	c.Access(wr(0, 0, units.KB))
	c.Finish(units.Hour)
	total := c.Meter().TotalJ()
	if total <= 0 {
		t.Fatal("no energy")
	}
	sum := c.dsk.Meter().TotalJ() + c.card.Meter().TotalJ()
	if total != sum {
		t.Errorf("combined meter %g ≠ disk+card %g", total, sum)
	}
}

func TestConstructionErrors(t *testing.T) {
	bad := cfg()
	bad.CacheSize = units.KB
	if _, err := New(bad); err == nil {
		t.Error("tiny cache accepted")
	}
	bad = cfg()
	bad.BlockSize = 0
	if _, err := New(bad); err == nil {
		t.Error("zero block size accepted")
	}
}

// TestHybridInvariants: random traffic never loses cache-state consistency:
// the underlying card never exceeds utilization 1, and the LRU map matches
// the list.
func TestHybridInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small := cfg()
		small.CacheSize = 32 * units.KB
		c, err := New(small)
		if err != nil {
			return false
		}
		var clock units.Time
		for i := 0; i < 400; i++ {
			clock += units.Time(rng.Intn(2000)) * units.Millisecond
			addr := units.Bytes(rng.Intn(128)) * units.KB
			n := units.Bytes(rng.Intn(3)+1) * units.KB
			switch rng.Intn(4) {
			case 0:
				c.Access(device.Request{Time: clock, Op: trace.Delete, Addr: addr, Size: n})
			case 1:
				clock = c.Access(rd(clock, addr, n))
			default:
				clock = c.Access(wr(clock, addr, n))
			}
		}
		if u := c.card.Utilization(); u > 1 {
			return false
		}
		// LRU list length equals map size.
		n := 0
		for s := c.head; s != nil; s = s.next {
			n++
		}
		return n == len(c.slots)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
