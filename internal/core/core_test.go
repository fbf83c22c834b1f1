package core

import (
	"math"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// smallTrace builds a deterministic hand-written trace: a working set of
// four 8 KB files with interleaved reads, writes, and one delete.
func smallTrace() *trace.Trace {
	t := &trace.Trace{Name: "small", BlockSize: units.KB}
	add := func(at units.Time, op trace.Op, file uint32, off, size units.Bytes) {
		t.Records = append(t.Records, trace.Record{Time: at, Op: op, File: file, Offset: off, Size: size})
	}
	var now units.Time
	for i := 0; i < 40; i++ {
		now += 100 * units.Millisecond
		f := uint32(i % 4)
		switch i % 5 {
		case 0, 1:
			add(now, trace.Write, f, units.Bytes(i%8)*units.KB, units.KB)
		case 2, 3:
			add(now, trace.Read, f, units.Bytes(i%8)*units.KB, units.KB)
		case 4:
			if i == 24 {
				add(now, trace.Delete, f, 0, 8*units.KB)
			} else {
				add(now, trace.Read, f, 0, 2*units.KB)
			}
		}
	}
	return t
}

func diskConfig(t *trace.Trace) Config {
	return Config{
		Trace:     t,
		DRAMBytes: 64 * units.KB,
		Kind:      MagneticDisk,
		Disk:      device.CU140Datasheet(),
		SpinDown:  5 * units.Second,
		SRAMBytes: 8 * units.KB,
	}
}

func TestRunDisk(t *testing.T) {
	res, err := Run(diskConfig(smallTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ <= 0 {
		t.Error("no energy consumed")
	}
	if res.Read.N() == 0 || res.Write.N() == 0 {
		t.Error("no measured operations")
	}
	if res.MeasuredOps != int(res.Read.N()+res.Write.N()) {
		t.Errorf("MeasuredOps %d ≠ reads %d + writes %d", res.MeasuredOps, res.Read.N(), res.Write.N())
	}
	if res.EnergyByComponent["storage"] <= 0 || res.EnergyByComponent["dram"] <= 0 || res.EnergyByComponent["sram"] <= 0 {
		t.Errorf("component energies: %v", res.EnergyByComponent)
	}
	if res.EndTime < 4*units.Second {
		t.Errorf("end time %v before the last record", res.EndTime)
	}
}

func TestRunFlashDisk(t *testing.T) {
	cfg := Config{
		Trace:           smallTrace(),
		DRAMBytes:       64 * units.KB,
		Kind:            FlashDisk,
		FlashDiskParams: device.SDP5Datasheet(),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flash disk writes are far slower than reads (coupled erasure).
	if res.Write.Mean() <= res.Read.Mean() {
		t.Errorf("flash disk write mean %.2f not above read mean %.2f", res.Write.Mean(), res.Read.Mean())
	}
}

func TestRunFlashCard(t *testing.T) {
	cfg := Config{
		Trace:           smallTrace(),
		DRAMBytes:       64 * units.KB,
		Kind:            FlashCard,
		FlashCardParams: device.IntelSeries2Datasheet(),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostBlocks == 0 {
		t.Error("no host blocks written")
	}
	if res.WriteAmplification() < 1 {
		t.Errorf("write amplification %.2f < 1", res.WriteAmplification())
	}
}

func TestRunDeterministic(t *testing.T) {
	for _, kind := range []StorageKind{MagneticDisk, FlashDisk, FlashCard} {
		mk := func() Config {
			cfg := diskConfig(smallTrace())
			cfg.Kind = kind
			cfg.FlashDiskParams = device.SDP5Datasheet()
			cfg.FlashCardParams = device.IntelSeries2Datasheet()
			return cfg
		}
		a, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if a.EnergyJ != b.EnergyJ || a.Read.Mean() != b.Read.Mean() || a.Write.Mean() != b.Write.Mean() {
			t.Errorf("%v: non-deterministic results: %v vs %v", kind, a, b)
		}
	}
}

func TestCacheHitsSpeedReads(t *testing.T) {
	// With a cache covering the whole working set, repeated reads hit DRAM;
	// without one every read pays the device.
	tr := smallTrace()
	with := diskConfig(tr)
	with.SpinDown = 0 // isolate the cache effect from spin-ups
	res, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	without := with
	without.DRAMBytes = 0
	resNo, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Error("no cache hits")
	}
	if resNo.CacheHits != 0 || resNo.CacheMisses != 0 {
		t.Error("cacheless run recorded cache traffic")
	}
	if res.Read.Mean() >= resNo.Read.Mean() {
		t.Errorf("cached read mean %.2f not below cacheless %.2f", res.Read.Mean(), resNo.Read.Mean())
	}
}

func TestWriteBackFasterWrites(t *testing.T) {
	tr := smallTrace()
	wt := Config{Trace: tr, DRAMBytes: 64 * units.KB, Kind: FlashCard, FlashCardParams: device.IntelSeries2Datasheet()}
	wb := wt
	wb.WriteBack = true
	rwt, err := Run(wt)
	if err != nil {
		t.Fatal(err)
	}
	rwb, err := Run(wb)
	if err != nil {
		t.Fatal(err)
	}
	if rwb.Write.Mean() >= rwt.Write.Mean() {
		t.Errorf("write-back write mean %.3f not below write-through %.3f", rwb.Write.Mean(), rwt.Write.Mean())
	}
}

func TestWarmFractionExcludesWarmup(t *testing.T) {
	tr := smallTrace()
	all := Config{Trace: tr, Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet(), WarmFraction: -1}
	part := all
	part.WarmFraction = 0.5
	ra, err := Run(all)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(part)
	if err != nil {
		t.Fatal(err)
	}
	if rp.MeasuredOps >= ra.MeasuredOps {
		t.Errorf("warm start measured %d ops, full run %d", rp.MeasuredOps, ra.MeasuredOps)
	}
	if rp.EnergyJ >= ra.EnergyJ {
		t.Errorf("post-warm energy %.1f not below full energy %.1f", rp.EnergyJ, ra.EnergyJ)
	}
}

func TestFlashUtilizationDerivesCapacity(t *testing.T) {
	tr := smallTrace() // footprint 32 KB
	cfg := Config{
		Trace:            tr,
		Kind:             FlashCard,
		FlashCardParams:  device.IntelSeries2Datasheet(),
		FlashUtilization: 0.5,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Explicit capacity below the footprint + reserve must error.
	bad := cfg
	bad.FlashCapacity = 128 * units.KB // one segment
	if _, err := Run(bad); err == nil {
		t.Error("undersized explicit capacity accepted")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := diskConfig(smallTrace())
	cfg.FlashUtilization = 1.5
	if _, err := Run(cfg); err == nil {
		t.Error("utilization > 0.99 accepted")
	}
	cfg = diskConfig(smallTrace())
	cfg.Kind = StorageKind(7)
	if _, err := Run(cfg); err == nil {
		t.Error("unknown kind accepted")
	}
	cfg = diskConfig(smallTrace())
	cfg.CleaningPolicy = "bogus"
	cfg.Kind = FlashCard
	cfg.FlashCardParams = device.IntelSeries2Datasheet()
	if _, err := Run(cfg); err == nil {
		t.Error("unknown cleaning policy accepted")
	}
}

func TestFootprint(t *testing.T) {
	tr := smallTrace()
	// All files are placed before the delete, so the footprint is the sum
	// of the files' maximum extents (block-rounded).
	var want units.Bytes
	for _, sz := range tr.MaxFileSizes() {
		want += units.CeilDiv(sz, tr.BlockSize) * tr.BlockSize
	}
	if fp := PrepareTrace(tr).Footprint(); fp != want {
		t.Errorf("footprint = %v, want %v", fp, want)
	}
}

func TestStorageKindString(t *testing.T) {
	if MagneticDisk.String() != "disk" || FlashDisk.String() != "flashdisk" || FlashCard.String() != "flashcard" {
		t.Error("kind names wrong")
	}
}

// TestEnergyConservation: on a real workload, total energy equals the sum
// of the component energies (full-run meters), and the post-warm figure
// never exceeds the full-run figure.
func TestEnergyConservation(t *testing.T) {
	tr, err := workload.Synth(workload.SynthConfig{Seed: 2, Ops: 3000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Trace:           tr,
		DRAMBytes:       256 * units.KB,
		Kind:            FlashCard,
		FlashCardParams: device.IntelSeries2Datasheet(),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, j := range res.EnergyByComponent {
		sum += j
	}
	if res.EnergyJ > sum+1e-6 {
		t.Errorf("post-warm energy %.3f exceeds component sum %.3f", res.EnergyJ, sum)
	}
	if res.EnergyJ <= 0 {
		t.Error("no energy")
	}
	if math.IsNaN(res.EnergyJ) {
		t.Error("NaN energy")
	}
}
