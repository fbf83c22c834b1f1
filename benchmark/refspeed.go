package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end time metrics are scaled to a reference host speed. A
// shared host's speed drifts: on a 2-vCPU VM the fig2 pass median was
// 194 ms over one set of ten 25 s runs and 356 ms over a set half an hour
// later, each set agreeing within 5%. So every pass and every set-up is
// preceded by refKernel, a fixed piece of work that shares no code with the
// simulator, and a time t measured after a kernel run of k is reported as
// t*(refNominal/k)^refExponent. The kernel runs with no garbage collection
// in flight (quietKernel), so a change to the simulator moves the pass and
// not the kernel, and still shows in full. The kernel's writes leave the
// caches cold, so every pass starts cold rather than where the previous
// pass left them.
const (
	// refNominal is the kernel time the metrics are scaled to. It lies
	// within the 15-34 ms the kernel took on that VM, so scaled values stay
	// near wall-clock ones there.
	refNominal = 25 * time.Millisecond
	// refExponent is how strongly the replays follow the kernel when the
	// host drifts. The kernel is more memory-bound than a replay: over 80
	// runs on that VM (two sets of ten seeds on each workload), a replay's
	// time moved as the kernel's to the power 0.55-0.7, and with 0.65 the
	// spread of the per-run pass medians fell from 0.26-0.40 (unscaled) and
	// 0.15-0.27 (exponent 1) to 0.04-0.19. The fit is in-sample and from
	// one VM; another host may follow its kernel more or less closely.
	refExponent = 0.65
	refWords    = 8 << 20 // 32 MiB working set: larger than the caches, like a replay's
	refSteps    = 1 << 18
)

// refMap takes the kernel's hashed updates. It is small (32 Ki keys) and
// allocated once.
var refMap = make(map[uint32]uint32, 1<<15)

// refTable is the kernel's working set. It lives outside the Go heap so
// that it does not raise the garbage collector's heap goal, which would
// change how often the measured passes collect.
var refTable []uint32

// mapRefTable maps refTable with its pages populated and runs the kernel
// once, so that no later run pays first-touch page faults; refKernel needs
// it.
func mapRefTable() error {
	n := refWords
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		return fmt.Errorf("mapping the reference kernel's table: %w", err)
	}
	refTable = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	refKernel()
	return nil
}

// gcSample reads the count of completed garbage-collection cycles.
var gcSample = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}

func gcCycles() uint64 {
	metrics.Read(gcSample)
	return gcSample[0].Value.Uint64()
}

// quietKernel runs refKernel with no garbage collection in flight. With one
// thread, a mark phase the previous pass started would otherwise share the
// kernel's thread, slow the kernel and so shrink the next pass's scale.
// Disabling the collector waits for a running mark phase to end, and the
// kernel allocates nothing, so no cycle starts during it. The second result
// reports whether a cycle was in flight and had to end first.
func quietKernel() (time.Duration, bool) {
	before := gcCycles()
	old := debug.SetGCPercent(-1)
	waited := gcCycles() != before
	k := refKernel()
	debug.SetGCPercent(old)
	return k, waited
}

// refKernel runs dependent pseudo-random read-modify-writes over the table
// plus map updates, and returns its wall time.
func refKernel() time.Duration {
	t0 := time.Now()
	clear(refMap)
	x := uint32(12345)
	for i := 0; i < refSteps; i++ {
		x = x*1664525 + 1013904223
		j := (x ^ refTable[x&(refWords-1)]) & (refWords - 1)
		refTable[j] += x
		refMap[x&(1<<15-1)] += refTable[j] >> 3
	}
	return time.Since(t0)
}

// refScale is the factor that scales a time measured right after a kernel
// run of duration k to the reference speed.
func refScale(k time.Duration) float64 {
	return math.Pow(float64(refNominal)/float64(k), refExponent)
}
