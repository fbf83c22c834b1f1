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
// sectors, so the memo holds a fixed table in 512-byte granules: entry i
// holds TransferTime(i·512) once computed, up to 256 KB. The table is part of
// the memo's value, so a device allocates it once, with itself, and a
// replay's lookups never allocate. Any other size (not a positive multiple of 512, or 256 KB and
// up) calls TransferTime directly. Each cached value is produced by the same
// TransferTime call, so results are bit-identical with or without the memo.
// The zero value (zero bandwidth) is usable and simply forwards.
type TransferMemo struct {
	kbPerSec float64
	// table[i] is TransferTime(i·memoGranule), or 0 while not yet computed.
	table [memoEntries]Time
}

// The memo's table covers sizes memoGranule·[1, memoEntries): 512 B up to
// just under 256 KB, in 4 KB per memo. Both are powers of two, so a size
// indexes the table exactly when it has no bits outside memoIndexBits.
const (
	memoGranule   = 512
	memoEntries   = 512
	memoIndexBits = memoGranule*memoEntries - memoGranule
)

// NewTransferMemo returns a memo for the given bandwidth.
func NewTransferMemo(kbPerSec float64) TransferMemo {
	return TransferMemo{kbPerSec: kbPerSec}
}

// Time returns TransferTime(b, kbPerSec), cached; the miss path computes
// and stores.
func (m *TransferMemo) Time(b Bytes) Time {
	// A zero entry is "not cached yet": TransferTime only returns 0 for a
	// non-positive bandwidth or size, or a sub-round-off size, which
	// recompute (cheaply) every call. A negative b has its high bits set,
	// so it takes the slow path with the sizes past the table. The modulo
	// is a no-op on an indexable size; it lets the compiler drop the
	// bounds check.
	if uint64(b)&^memoIndexBits == 0 {
		if t := m.table[uint64(b)/memoGranule%memoEntries]; t > 0 {
			return t
		}
	}
	return m.slow(b)
}

func (m *TransferMemo) slow(b Bytes) Time {
	t := TransferTime(b, m.kbPerSec)
	if uint64(b)&^memoIndexBits == 0 {
		m.table[uint64(b)/memoGranule%memoEntries] = t
	}
	return t
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
