package difftest

import (
	"testing"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// fuzzBlockSize keeps generated traces block-aligned-ish but not exactly:
// offsets land on half-block boundaries too, exercising the partial-block
// rounding in the layout and cache.
const fuzzBlockSize = 512 * units.B

// traceFromBytes decodes fuzz input into a small valid trace: each 6-byte
// group becomes one record (op, file, offset, size, inter-arrival gap,
// sequential run length). The decoder is total — any byte string yields a
// valid trace — so the fuzzer explores structure, not the validator.
func traceFromBytes(data []byte) *trace.Trace {
	const maxRecords = 96
	tr := &trace.Trace{Name: "fuzz", BlockSize: fuzzBlockSize}
	var now units.Time
	for i := 0; i+6 <= len(data) && len(tr.Records) < maxRecords; i += 6 {
		op := trace.Op(0)
		switch data[i] % 5 {
		case 0, 1:
			op = trace.Read
		case 2, 3:
			op = trace.Write
		case 4:
			op = trace.Delete
		}
		file := uint32(data[i+1] % 12)
		offset := units.Bytes(data[i+2]%32) * 256 * units.B
		size := units.Bytes(data[i+3]%32+1) * 256 * units.B
		if op == trace.Delete {
			offset, size = 0, 0
		}
		now += units.Time(data[i+4]) * 997 * units.Microsecond
		tr.Records = append(tr.Records, trace.Record{
			Time: now, Op: op, File: file, Offset: offset, Size: size,
		})
		// Byte 5 extends the record into a sequential run: follow-on
		// records continue the same op on the same file at consecutive
		// byte offsets, the pattern the disk's same-file seek and the
		// card's contiguous appends respond to. Deletes never run.
		if op != trace.Delete {
			for run := int(data[i+5] % 8); run > 0 && len(tr.Records) < maxRecords; run-- {
				offset += size
				now += 13 * units.Microsecond
				tr.Records = append(tr.Records, trace.Record{
					Time: now, Op: op, File: file, Offset: offset, Size: size,
				})
			}
		}
	}
	return tr
}

// FuzzRunEquivalence generates mini-traces from fuzz input and replays each
// through the reference and fast loops on a flash card (the device with the
// most background machinery) and a spin-down disk, requiring byte-identical
// artifacts every time. The card runs under a 64 KB write-through cache, a
// 64 KB write-back one, and a 1 KB write-back one smaller than most
// requests (up to 8 KB), so an Insert evicts dirty blocks it just inserted.
// Every leg runs fault-free, with a transient-fault plan, and with power
// failures mid-trace and just after the last record. Run as a plain test it
// covers the seed corpus; `go test -fuzz` explores.
func FuzzRunEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	// A read/write/delete churn over a few files with varied gaps.
	f.Add([]byte{
		2, 1, 4, 8, 50, 0,
		0, 1, 4, 8, 2, 0,
		4, 1, 0, 0, 200, 0,
		2, 1, 0, 31, 5, 0,
		3, 2, 16, 16, 0, 0,
		1, 2, 16, 1, 255, 0,
	})
	// Dense same-file rewrites: maximal cleaning pressure.
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 64; i++ {
			b = append(b, 2, 3, byte(i%4), 15, 3, 0)
		}
		return b
	}())
	// Sequential bursts: byte 5 spawns follow-on records at consecutive
	// offsets, alternating write and read sweeps over a few files.
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 10; i++ {
			b = append(b, 2, byte(i%3), 0, 7, 40, 7)
			b = append(b, 0, byte(i%3), 0, 7, 90, 5)
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := traceFromBytes(data)
		if len(tr.Records) == 0 {
			return
		}
		// The second power failure lands 1 µs after the last record, inside
		// the run whenever the last device request completes later.
		last := int64(tr.Duration())
		plans := []*fault.Plan{
			nil,
			{ReadErrorRate: 0.05, WriteErrorRate: 0.05, EraseErrorRate: 0.1},
			{PowerFailAtUs: []int64{last / 2, last + 1}},
		}
		caches := []struct {
			bytes     units.Bytes
			writeBack bool
		}{{64 * units.KB, false}, {64 * units.KB, true}, {units.KB, true}}
		for _, plan := range plans {
			for _, c := range caches {
				card := core.Config{
					Trace:     tr,
					DRAMBytes: c.bytes,
					WriteBack: c.writeBack,
					Kind:      core.FlashCard,
					Faults:    plan,
					FaultSeed: 5,
				}
				card.FlashCardParams = device.IntelSeries2Measured()
				refRun, fastRun := runBoth(t, card)
				requireIdentical(t, refRun, fastRun)
			}

			disk := core.Config{
				Trace:     tr,
				DRAMBytes: 64 * units.KB,
				Kind:      core.MagneticDisk,
				SpinDown:  2 * units.Second,
				SRAMBytes: 32 * units.KB,
				Faults:    plan,
				FaultSeed: 5,
			}
			disk.Disk = device.CU140Measured()
			refRun, fastRun := runBoth(t, disk)
			requireIdentical(t, refRun, fastRun)
		}
	})
}
