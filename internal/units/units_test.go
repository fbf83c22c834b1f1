package units

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		tm  Time
		sec float64
		ms  float64
	}{
		{0, 0, 0},
		{Microsecond, 1e-6, 1e-3},
		{Millisecond, 1e-3, 1},
		{Second, 1, 1000},
		{Minute, 60, 60000},
		{Hour, 3600, 3.6e6},
		{Day, 86400, 8.64e7},
	}
	for _, c := range cases {
		if got := c.tm.Seconds(); got != c.sec {
			t.Errorf("%d.Seconds() = %g, want %g", c.tm, got, c.sec)
		}
		if got := c.tm.Milliseconds(); got != c.ms {
			t.Errorf("%d.Milliseconds() = %g, want %g", c.tm, got, c.ms)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %d, want %d", got, 1500*Millisecond)
	}
	if got := FromSeconds(0.0000005); got != 1 { // rounds to nearest µs
		t.Errorf("FromSeconds(0.5µs) = %d, want 1", got)
	}
	if got := FromMilliseconds(25.7); got != 25700 {
		t.Errorf("FromMilliseconds(25.7) = %d, want 25700", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		tm   Time
		want string
	}{
		{500, "500µs"},
		{25700, "25.7ms"},
		{1600 * Millisecond, "1.6s"},
		{90 * Second, "1.5min"},
		{2 * Hour, "2h"},
		{-Second, "-1s"},
	}
	for _, c := range cases {
		if got := c.tm.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.tm, got, c.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		b    Bytes
		want string
	}{
		{512, "512B"},
		{KB, "1KB"},
		{64 * KB, "64KB"},
		{10 * MB, "10MB"},
		{3 * GB, "3GB"},
		{-KB, "-1KB"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Max(Time(3), Time(5)) != 5 || Max(Time(5), Time(3)) != 5 {
		t.Error("Max wrong")
	}
	if Min(Time(3), Time(5)) != 3 || Min(Time(5), Time(3)) != 3 {
		t.Error("Min wrong")
	}
}

func TestTransferTime(t *testing.T) {
	// 75 KB at 75 KB/s is one second.
	if got := TransferTime(75*KB, 75); got != Second {
		t.Errorf("TransferTime(75KB, 75) = %v, want 1s", got)
	}
	// Zero bandwidth means instantaneous (byte-addressable idealization).
	if got := TransferTime(MB, 0); got != 0 {
		t.Errorf("TransferTime with 0 bandwidth = %v, want 0", got)
	}
	if got := TransferTime(0, 100); got != 0 {
		t.Errorf("TransferTime of 0 bytes = %v, want 0", got)
	}
}

func TestBandwidthKBs(t *testing.T) {
	if got := BandwidthKBs(75*KB, Second); got != 75 {
		t.Errorf("BandwidthKBs(75KB, 1s) = %g, want 75", got)
	}
	if got := BandwidthKBs(KB, 0); got != 0 {
		t.Errorf("BandwidthKBs with zero time = %g, want 0", got)
	}
}

// TestTransferBandwidthRoundTrip checks that converting bytes→time→bandwidth
// recovers the bandwidth within rounding error.
func TestTransferBandwidthRoundTrip(t *testing.T) {
	f := func(sizeKB uint16, rate uint16) bool {
		if sizeKB == 0 || rate == 0 {
			return true
		}
		size := Bytes(sizeKB) * KB
		kbs := float64(rate)
		d := TransferTime(size, kbs)
		got := BandwidthKBs(size, d)
		return math.Abs(got-kbs)/kbs < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want Bytes }{
		{0, 512, 0},
		{1, 512, 1},
		{512, 512, 1},
		{513, 512, 2},
		{1024, 512, 2},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(1, 0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

// TestCeilDivProperty: result×b is the smallest multiple of b that is ≥ a.
func TestCeilDivProperty(t *testing.T) {
	f := func(a uint32, b uint16) bool {
		if b == 0 {
			return true
		}
		av, bv := Bytes(a), Bytes(b)
		q := CeilDiv(av, bv)
		return q*bv >= av && (q == 0 || (q-1)*bv < av)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// memoBandwidths are every datasheet bandwidth in internal/device's
// catalog, plus the zero and negative bandwidths the memo must forward.
var memoBandwidths = []float64{2125, 543, 900, 410, 50, 600, 800, 75, 150, 400,
	9765, 214, 645, 35, 50000, 17700, 0, -1}

// memoSizes straddle the table: non-positive sizes, sizes off the 512-byte
// granule, the first and last granule entries, trace-sized blocks, the
// table's 256 KB end and sizes far past it.
var memoSizes = []Bytes{-512, 0, 1, 511, 512, 513, 7168, 32767, 32768, 32769,
	139264, 262143, 262144, 262656, 1 << 40}

// TestTransferMemoMatchesTransferTime: the memo returns exactly what
// TransferTime returns, whatever order sizes arrive in and however often
// they repeat, and neither a lookup nor a new memo over a shared table
// allocates.
func TestTransferMemoMatchesTransferTime(t *testing.T) {
	desc := slices.Clone(memoSizes)
	slices.Reverse(desc)
	repeated := slices.Concat(memoSizes, memoSizes, desc, desc)
	for _, kb := range memoBandwidths {
		for name, sizes := range map[string][]Bytes{"ascending": memoSizes, "descending": desc, "repeated": repeated} {
			m := NewTransferMemo(kb)
			for _, b := range sizes {
				if got, want := m.Time(b), TransferTime(b, kb); got != want {
					t.Errorf("%g KB/s, %s: Time(%d) = %d, want %d", kb, name, b, got, want)
				}
			}
		}
		// A fresh memo each pass reads the shared table: no allocation.
		if allocs := testing.AllocsPerRun(100, func() {
			m := NewTransferMemo(kb)
			for _, b := range memoSizes {
				m.Time(b)
			}
		}); allocs != 0 {
			t.Errorf("%g KB/s: a new memo allocates %.1f times over the sizes, want 0", kb, allocs)
		}
	}
}

// FuzzTransferMemo replays a fuzz-chosen size sequence through one memo at
// a fuzz-chosen bandwidth; every lookup must equal TransferTime. The input
// is read as little-endian 4-byte words (a short tail is zero-padded), and
// each word's top two bits pick how the rest becomes a size: a multiple of
// 512 in or past the table, any size below 256 KB, or a signed size of up
// to ±2^41.
func FuzzTransferMemo(f *testing.F) {
	words := func(ws ...uint32) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	const granules, small, wide = 0, 1 << 30, 2 << 30
	f.Add(214.0, words(granules|1, granules|2, granules|1, granules|14))
	f.Add(75.0, words(granules|511, granules|512, granules|1023, small|511, small|513, small|262143))
	f.Add(0.0, words(granules|1, wide|0x7fffffff, small|0))
	f.Add(-1.0, words(wide|1<<30, granules|272, small|32768))
	f.Add(50000.0, []byte{0x01, 0x00})
	f.Fuzz(func(t *testing.T, kb float64, data []byte) {
		m := NewTransferMemo(kb)
		checkMemoTable(t, m, kb)
		for len(data) > 0 {
			var word [4]byte
			data = data[copy(word[:], data):]
			w := binary.LittleEndian.Uint32(word[:])
			var b Bytes
			switch w >> 30 {
			case 0:
				b = Bytes(w%1024) * 512
			case 1:
				b = Bytes(w % (256 << 10))
			default:
				b = Bytes(int32(w<<1)) << 10
			}
			if got, want := m.Time(b), TransferTime(b, kb); got != want {
				t.Fatalf("%g KB/s: Time(%d) = %d, want %d", kb, b, got, want)
			}
		}
	})
}

// checkMemoTable checks that m holds a table for kb that is filled in full
// with TransferTime's values and that it is the shared table whenever kb has
// one.
func checkMemoTable(t *testing.T, m TransferMemo, kb float64) {
	t.Helper()
	if m.table == nil {
		t.Fatalf("%g KB/s: memo has no table", kb)
	}
	for i, got := range m.table {
		if want := TransferTime(Bytes(i)*memoGranule, kb); got != want {
			t.Fatalf("%g KB/s: table[%d] = %d, want TransferTime(%d) = %d", kb, i, got, i*memoGranule, want)
		}
	}
	memoTables.Lock()
	shared, ok := memoTables.byBits[math.Float64bits(kb)]
	memoTables.Unlock()
	if ok && shared != m.table {
		t.Fatalf("%g KB/s: memo holds a private table beside the shared one", kb)
	}
}

// TestTransferMemoTablesCapped feeds 10,000 distinct bandwidths through
// NewTransferMemo: the shared tables stop growing at memoTablesCap, every
// memo past the cap still reads a correct table of its own, and a
// bandwidth registered before the cap keeps its shared table. It runs on an
// empty registry and restores the process's afterwards.
func TestTransferMemoTablesCapped(t *testing.T) {
	memoTables.Lock()
	saved := memoTables.byBits
	memoTables.byBits = make(map[uint64]*memoTable)
	memoTables.Unlock()
	t.Cleanup(func() {
		memoTables.Lock()
		memoTables.byBits = saved
		memoTables.Unlock()
	})
	const n = 10_000
	first := NewTransferMemo(1)
	for i := 1; i < n; i++ {
		kb := 1 + float64(i)/8
		m := NewTransferMemo(kb)
		if i%997 == 0 {
			checkMemoTable(t, m, kb)
		}
	}
	memoTables.Lock()
	size := len(memoTables.byBits)
	memoTables.Unlock()
	if size != memoTablesCap {
		t.Errorf("%d distinct bandwidths left %d shared tables, want the cap %d", n, size, memoTablesCap)
	}
	if again := NewTransferMemo(1); again.table != first.table {
		t.Error("a bandwidth registered before the cap lost its shared table")
	}
	past := NewTransferMemo(n)
	checkMemoTable(t, past, n)
	if NewTransferMemo(n).table == past.table {
		t.Error("a bandwidth past the cap shares a table it was never given")
	}
}

// TestTransferMemoConcurrent builds memos for one new bandwidth on several
// goroutines at once, as fleet workers build devices: all of them must
// read the one shared table, and read it correctly. Run under -race it also
// checks that publishing a table races with no reader.
func TestTransferMemoConcurrent(t *testing.T) {
	const kb, workers = 123.25, 8
	tables := make([]*memoTable, workers)
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewTransferMemo(kb)
			for i := 0; i < memoEntries; i++ {
				b := Bytes(i) * memoGranule
				if got, want := m.Time(b), TransferTime(b, kb); got != want {
					t.Errorf("Time(%d) = %d, want %d", b, got, want)
					return
				}
			}
			tables[g] = m.table
		}()
	}
	wg.Wait()
	for g, tb := range tables {
		if tb != tables[0] {
			t.Errorf("worker %d reads a different table than worker 0", g)
		}
	}
}
