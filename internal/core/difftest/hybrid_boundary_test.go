package difftest

import (
	"testing"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// boundaryTrace hand-builds a workload of long sequential chains: six
// files written front to back in 48 records of 1 KB, 100 ms apart, then
// read back the same way. Chains are separated by 3 s idle gaps so a 2 s
// spin-down timer fires between them. The subtests put the warm snapshot
// and every power failure strictly inside a chain, and the sampler ticks
// between arrivals, while the flash cache is busy with the chain's misses,
// evictions and destages.
func boundaryTrace() *trace.Trace {
	const (
		files    = 6
		perChain = 48
		recSize  = units.KB
	)
	gap := 100 * units.Millisecond
	pause := 3 * units.Second
	var recs []trace.Record
	now := units.Time(0)
	chain := func(op trace.Op, file uint32) {
		for i := 0; i < perChain; i++ {
			recs = append(recs, trace.Record{
				Time:   now,
				Op:     op,
				File:   file,
				Offset: units.Bytes(i) * recSize,
				Size:   recSize,
			})
			now += gap
		}
		now += pause
	}
	for f := uint32(0); f < files; f++ {
		chain(trace.Write, f)
	}
	for f := uint32(0); f < files; f++ {
		chain(trace.Read, f)
	}
	// Rewrite half the files so the flash cache sees dirty blocks it has
	// already admitted, forcing invalidation and cleaning pressure on the
	// card mid-chain.
	for f := uint32(0); f < files/2; f++ {
		chain(trace.Write, f)
	}
	return &trace.Trace{Name: "chains", BlockSize: units.KB, Records: recs}
}

// hybridBoundaryConfig is the FlashCache base every subtest mutates: the
// cache is deliberately smaller than the 288 KB working set so misses,
// evictions, and disk write-backs happen inside chains, and the disk's
// spin-down timer is shorter than the inter-chain gaps so spin state
// changes between chains.
func hybridBoundaryConfig(tr *trace.Trace) core.Config {
	return core.Config{
		Trace:           tr,
		Kind:            core.FlashCache,
		Disk:            device.CU140Measured(),
		SpinDown:        2 * units.Second,
		FlashCardParams: device.IntelSeries2Measured(),
		FlashCacheBytes: 192 * units.KB,
	}
}

// TestHybridBoundaryEquivalence covers hybrid flash-cache configurations
// the 180-config matrix does not: a 192 KB flash cache under a 288 KB
// sequential working set with a 2 s spin-down. Each subtest lands one (then
// all) of the boundaries that interleave with device work — the warm-start
// snapshot, power failures, sampler ticks — in the middle of a chain, and
// requires the fast and reference paths to stay byte-identical.
func TestHybridBoundaryEquivalence(t *testing.T) {
	tr := boundaryTrace()

	t.Run("warm-mid-run", func(t *testing.T) {
		cfg := hybridBoundaryConfig(tr)
		// 0.45 of 720 records is index 324, which is 36 records into a
		// read chain — the warm snapshot splits that chain.
		cfg.WarmFraction = 0.45
		if idx := tr.WarmSplit(cfg.WarmFraction); idx%48 == 0 {
			t.Fatalf("warm index %d sits on a chain boundary; the test needs it mid-chain", idx)
		}
		ref, fast := runBoth(t, cfg)
		requireIdentical(t, ref, fast)
	})

	t.Run("powerfail-mid-run", func(t *testing.T) {
		cfg := hybridBoundaryConfig(tr)
		// Chains start every 7.8 s; +1.25 s is 12½ records into a chain,
		// strictly between arrivals, so every crash splits a chain.
		cfg.Faults = &fault.Plan{PowerFailAtUs: []int64{1_250_000, 9_050_000, 32_450_000}}
		cfg.FaultSeed = 11
		ref, fast := runBoth(t, cfg)
		requireIdentical(t, ref, fast)
	})

	t.Run("sampler-mid-run", func(t *testing.T) {
		cfg := hybridBoundaryConfig(tr)
		// 730 ms is not a multiple of the 100 ms record spacing, so
		// sampler deadlines fall strictly between arrivals, inside chains.
		cfg.SampleEvery = 730 * units.Millisecond
		ref, fast := runBoth(t, cfg)
		requireIdentical(t, ref, fast)
	})

	t.Run("all-boundaries", func(t *testing.T) {
		cfg := hybridBoundaryConfig(tr)
		cfg.WarmFraction = 0.45
		cfg.SampleEvery = 730 * units.Millisecond
		cfg.Faults = &fault.Plan{PowerFailAtUs: []int64{1_250_000, 9_050_000, 32_450_000}}
		cfg.FaultSeed = 11
		// A write-back DRAM cache in front of the hybrid adds eviction
		// write-backs that must interleave identically too.
		cfg.DRAMBytes = 128 * units.KB
		cfg.WriteBack = true
		ref, fast := runBoth(t, cfg)
		requireIdentical(t, ref, fast)
	})
}
