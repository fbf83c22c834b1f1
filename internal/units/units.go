// Package units defines the simulated time base and byte-size helpers used
// throughout the storage simulator.
//
// Simulated time is an int64 count of microseconds since the start of a
// simulation. Microsecond resolution is fine enough to resolve the fastest
// modeled operations (DRAM transfers of a fraction of a block) while leaving
// ample headroom: 2^63 µs is roughly 292,000 years of simulated time.
package units

import (
	"fmt"
	"math"
	"sync"
)

// Time is a simulated instant or duration in microseconds.
type Time int64

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
	Day         Time = 24 * Hour
)

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts a simulated duration to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to simulated time, rounding to
// the nearest microsecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// FromMilliseconds converts floating-point milliseconds to simulated time.
func FromMilliseconds(ms float64) Time { return Time(math.Round(ms * float64(Millisecond))) }

// String renders a duration with an auto-selected unit, e.g. "25.7ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Millisecond:
		return fmt.Sprintf("%dµs", int64(t))
	case t < Second:
		return fmt.Sprintf("%.3gms", t.Milliseconds())
	case t < Minute:
		return fmt.Sprintf("%.3gs", t.Seconds())
	case t < Hour:
		return fmt.Sprintf("%.3gmin", float64(t)/float64(Minute))
	default:
		return fmt.Sprintf("%.3gh", float64(t)/float64(Hour))
	}
}

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of two times.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Bytes is a byte count or capacity.
type Bytes int64

// Common sizes.
const (
	B  Bytes = 1
	KB Bytes = 1024 * B
	MB Bytes = 1024 * KB
	GB Bytes = 1024 * MB
)

// KBytes converts to floating-point kilobytes.
func (b Bytes) KBytes() float64 { return float64(b) / float64(KB) }

// MBytes converts to floating-point megabytes.
func (b Bytes) MBytes() float64 { return float64(b) / float64(MB) }

// String renders a size with an auto-selected unit, e.g. "64KB".
func (b Bytes) String() string {
	switch {
	case b < 0:
		return "-" + (-b).String()
	case b < KB:
		return fmt.Sprintf("%dB", int64(b))
	case b < MB:
		return fmt.Sprintf("%.4gKB", b.KBytes())
	case b < GB:
		return fmt.Sprintf("%.4gMB", b.MBytes())
	default:
		return fmt.Sprintf("%.4gGB", float64(b)/float64(GB))
	}
}

// TransferTime returns the time needed to move b bytes at the given
// bandwidth (expressed in KB per second, the unit every datasheet in the
// paper uses). A non-positive bandwidth yields zero time, which callers use
// for "instantaneous" byte-addressable accesses.
func TransferTime(b Bytes, kbPerSec float64) Time {
	if kbPerSec <= 0 || b <= 0 {
		return 0
	}
	sec := float64(b) / (kbPerSec * float64(KB))
	return FromSeconds(sec)
}

// TransferMemo caches TransferTime results for one fixed bandwidth. Device
// models compute transfer times with a handful of datasheet bandwidths over
// a heavily repeated set of sizes, and the float divide and round per call
// was a measurable slice of whole-trace replays. Every generated trace moves
// whole 512-byte or 1 KB blocks and the flash disk works in 512-byte
// sectors, so the memo reads a table in 512-byte granules: entry i holds
// TransferTime(i·512), up to 256 KB. Any other size (not a multiple of 512,
// or 256 KB and up) calls TransferTime directly. Each entry is produced by
// the same TransferTime call, so results are bit-identical with or without
// the memo.
//
// The table is filled in full when it is built and never written again.
// NewTransferMemo shares one table per bandwidth across the process (see
// memoTables), so a device's memos cost no allocation per run and
// concurrent runs read the same tables. The zero value (zero bandwidth) is
// usable and simply forwards.
type TransferMemo struct {
	kbPerSec float64
	table    *memoTable
}

// memoTable is a filled transfer-time table: entry i is
// TransferTime(i·memoGranule) at one bandwidth.
type memoTable [memoEntries]Time

// The memo's table covers sizes memoGranule·[0, memoEntries): 0 up to just
// under 256 KB, in 4 KB per table. Both are powers of two, so a size indexes
// the table exactly when it has no bits outside memoIndexBits.
const (
	memoGranule   = 512
	memoEntries   = 512
	memoIndexBits = memoGranule*memoEntries - memoGranule
)

// memoTablesCap bounds the shared tables, and so their memory (4 KB each),
// whatever bandwidths a process meets. Past it, each memo fills a table of
// its own.
const memoTablesCap = 64

// memoTables holds the shared tables, keyed by the bandwidth's bits. A
// table is filled before it is published under the lock, and never written
// after, so memos on any goroutine read it without synchronization.
var memoTables = struct {
	sync.Mutex
	byBits map[uint64]*memoTable
}{byBits: make(map[uint64]*memoTable, memoTablesCap)}

// NewTransferMemo returns a memo for the given bandwidth.
func NewTransferMemo(kbPerSec float64) TransferMemo {
	key := math.Float64bits(kbPerSec)
	memoTables.Lock()
	defer memoTables.Unlock()
	t, ok := memoTables.byBits[key]
	if !ok {
		t = newMemoTable(kbPerSec)
		if len(memoTables.byBits) < memoTablesCap {
			memoTables.byBits[key] = t
		}
	}
	return TransferMemo{kbPerSec: kbPerSec, table: t}
}

// newMemoTable fills a table for one bandwidth.
func newMemoTable(kbPerSec float64) *memoTable {
	t := new(memoTable)
	for i := range t {
		t[i] = TransferTime(Bytes(i)*memoGranule, kbPerSec)
	}
	return t
}

// Time returns TransferTime(b, kbPerSec), read from the table when b
// indexes it. A negative b has its high bits set, so it forwards with the
// sizes past the table. The modulo is a no-op on an indexable size; it lets
// the compiler drop the bounds check.
func (m *TransferMemo) Time(b Bytes) Time {
	if uint64(b)&^memoIndexBits == 0 && m.table != nil {
		return m.table[uint64(b)/memoGranule%memoEntries]
	}
	return TransferTime(b, m.kbPerSec)
}

// BandwidthKBs returns the bandwidth, in KB/s, implied by transferring b
// bytes in duration d. Returns 0 when d is zero (infinite bandwidth has no
// useful finite rendering; callers treat 0 as "not meaningful").
func BandwidthKBs(b Bytes, d Time) float64 {
	if d <= 0 {
		return 0
	}
	return b.KBytes() / d.Seconds()
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b Bytes) Bytes {
	if b <= 0 {
		panic("units: CeilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}
