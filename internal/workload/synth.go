package workload

import (
	"fmt"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// SynthConfig parameterizes the synthetic workload of §4.1, which the paper
// specifies exactly: it is based loosely on the hot-and-cold workload used
// to evaluate Sprite LFS cleaning policies, and small enough (6 MB) to fit
// on the 10 MB flash devices so it can run on both the OmniBook testbed and
// the simulator (§5.1 validation).
type SynthConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Ops is the number of operations to generate.
	Ops int
	// DataMB is the dataset size in MB (paper: 6 MB of 32 KB files).
	DataMB int
}

// DefaultSynthOps is the trace length used when none is specified; long
// enough to cycle the 6 MB dataset several times so cleaning happens.
const DefaultSynthOps = 20000

// MaxSynthOps bounds SynthConfig.Ops, which reaches Synth from outside
// (tracegen -ops, a fleet job's synth_ops). Synth sizes its records in one
// allocation, so the bound caps that at 32 MB, 50 times the default trace.
const MaxSynthOps = 1000000

// Paper constants for the synth workload.
const (
	synthFileSize  = 32 * units.KB
	synthBlockSize = 512 * units.B
)

// Synth generates the paper's synthetic workload:
//
//   - 6 MB of 32 KB files, with 7/8 of accesses going to 1/8 of the data;
//   - operations split 60% reads, 35% writes, 5% erases;
//   - an erase deletes an entire file, and the next write to that file
//     rewrites the whole 32 KB unit;
//   - otherwise 40% of accesses are 0.5 KB, 40% uniform in (0.5 KB, 16 KB],
//     and 20% uniform in (16 KB, 32 KB];
//   - inter-arrival times are bimodal: 90% uniform with mean 10 ms, the
//     rest 20 ms plus an exponential with mean 3 s.
func Synth(c SynthConfig) (*trace.Trace, error) {
	if c.Ops <= 0 {
		c.Ops = DefaultSynthOps
	}
	if c.Ops > MaxSynthOps {
		return nil, fmt.Errorf("workload: synth ops %d exceeds the %d-op bound (MaxSynthOps)", c.Ops, MaxSynthOps)
	}
	if c.DataMB <= 0 {
		c.DataMB = 6
	}
	numFiles := int(units.Bytes(c.DataMB) * units.MB / synthFileSize)
	if numFiles < 8 {
		return nil, fmt.Errorf("workload: synth dataset too small (%d MB)", c.DataMB)
	}
	hotFiles := numFiles / 8
	g := NewRNG(c.Seed)

	interArrival := Mixture{Components: []Component{
		{Weight: 0.90, Kind: UniformComponent, Mean: 0.010},
		{Weight: 0.10, Kind: ExpComponent, Mean: 3.0, Shift: 0.020},
	}}

	// Every op makes exactly one record.
	t := &trace.Trace{Name: "synth", BlockSize: synthBlockSize, Records: make([]trace.Record, 0, c.Ops)}
	erased := make(map[uint32]bool)
	now := units.Time(0)
	for i := 0; i < c.Ops; i++ {
		now += interArrival.Draw(g)

		// Hot-and-cold: 7/8 of accesses to the 1/8 hot files.
		var file uint32
		if g.Float64() < 7.0/8.0 {
			file = uint32(g.Intn(hotFiles))
		} else {
			file = uint32(hotFiles + g.Intn(numFiles-hotFiles))
		}

		u := g.Float64()
		switch {
		case u < 0.05: // erase
			if erased[file] {
				// Already erased: turn into the recreating write instead so
				// the op mix stays close to specification.
				t.Records = append(t.Records, fullWrite(now, file))
				delete(erased, file)
				continue
			}
			erased[file] = true
			t.Records = append(t.Records, trace.Record{
				Time: now, Op: trace.Delete, File: file, Size: synthFileSize,
			})
		case u < 0.05+0.35: // write
			if erased[file] {
				// First write after an erase rewrites the whole 32 KB unit.
				t.Records = append(t.Records, fullWrite(now, file))
				delete(erased, file)
				continue
			}
			off, size := synthExtent(g)
			t.Records = append(t.Records, trace.Record{
				Time: now, Op: trace.Write, File: file, Offset: off, Size: size,
			})
		default: // read
			if erased[file] {
				// Cannot read erased data; recreate it (keeps trace legal).
				t.Records = append(t.Records, fullWrite(now, file))
				delete(erased, file)
				continue
			}
			off, size := synthExtent(g)
			t.Records = append(t.Records, trace.Record{
				Time: now, Op: trace.Read, File: file, Offset: off, Size: size,
			})
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("workload: synth generated invalid trace: %w", err)
	}
	return t, nil
}

func fullWrite(now units.Time, file uint32) trace.Record {
	return trace.Record{Time: now, Op: trace.Write, File: file, Offset: 0, Size: synthFileSize}
}

// synthExtent draws the access size per §4.1 (40% half-KB, 40% in
// (0.5 KB, 16 KB], 20% in (16 KB, 32 KB]) and a block-aligned offset such
// that the access fits in the 32 KB file.
func synthExtent(g *RNG) (off, size units.Bytes) {
	u := g.Float64()
	switch {
	case u < 0.40:
		size = 512 * units.B
	case u < 0.80:
		size = units.Bytes(g.Uniform(float64(512*units.B)+1, float64(16*units.KB)))
	default:
		size = units.Bytes(g.Uniform(float64(16*units.KB)+1, float64(32*units.KB)))
	}
	// Round to whole blocks so transfers align with the file system.
	size = units.CeilDiv(size, synthBlockSize) * synthBlockSize
	if size > synthFileSize {
		size = synthFileSize
	}
	maxOff := (synthFileSize - size) / synthBlockSize
	if maxOff > 0 {
		off = units.Bytes(g.Intn(int(maxOff)+1)) * synthBlockSize
	}
	return off, size
}

// TPCAConfig parameterizes the transaction-processing workload used for
// the eNVy comparison (§6): eNVy evaluated flash storage under TPC-A, a
// stream of small random account updates.
type TPCAConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Ops is the number of transactions.
	Ops int
	// DataMB is the account-table size (uniformly accessed).
	DataMB int
	// TPS is the offered transaction rate per second.
	TPS float64
}

// TPCA generates a TPC-A-like workload: each transaction reads one block
// and writes it back, at uniformly random locations over the whole dataset
// — the worst case for log-structured cleaning (no hot/cold skew at all).
func TPCA(c TPCAConfig) (*trace.Trace, error) {
	if c.Ops <= 0 {
		c.Ops = 20000
	}
	if c.DataMB <= 0 {
		c.DataMB = 16
	}
	if c.TPS <= 0 {
		c.TPS = 50
	}
	const blockSize = 512 * units.B
	numFiles := int(units.Bytes(c.DataMB) * units.MB / synthFileSize)
	if numFiles < 1 {
		return nil, fmt.Errorf("workload: tpca dataset too small (%d MB)", c.DataMB)
	}
	g := NewRNG(c.Seed)
	t := &trace.Trace{Name: "tpca", BlockSize: blockSize, Records: make([]trace.Record, 0, 2*c.Ops)}
	gap := 1.0 / c.TPS
	now := units.Time(0)
	blocksPerFile := int(synthFileSize / blockSize)
	for i := 0; i < c.Ops; i++ {
		now += units.FromSeconds(g.Exp(gap))
		file := uint32(g.Intn(numFiles))
		off := units.Bytes(g.Intn(blocksPerFile)) * blockSize
		t.Records = append(t.Records,
			trace.Record{Time: now, Op: trace.Read, File: file, Offset: off, Size: blockSize},
			trace.Record{Time: now + units.Millisecond, Op: trace.Write, File: file, Offset: off, Size: blockSize},
		)
		now += units.Millisecond
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("workload: tpca generated invalid trace: %w", err)
	}
	return t, nil
}
