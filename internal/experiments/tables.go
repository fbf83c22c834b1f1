package experiments

import (
	"fmt"

	"mobilestorage/internal/compress"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/testbed"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// ---------------------------------------------------------------- Table 1

// Table1Row is one device/operation row of Table 1: measured throughput in
// KB/s for 4 KB accesses to 4 KB and 1 MB files, with and without
// compression.
type Table1Row struct {
	Device    string
	Operation string // "read" or "write"
	// Uncompressed4K/1M: raw data path (random payload for the Intel card,
	// whose compression cannot be disabled).
	Uncompressed4K, Uncompressed1M float64
	// Compressed4K/1M: DoubleSpace / Stacker / MFFS compression with the
	// Moby-Dick payload.
	Compressed4K, Compressed1M float64
}

// table1Total is how much data each micro-benchmark moves.
const table1Total = 4 * units.MB

// Table1 reruns the §3 micro-benchmarks on the emulated OmniBook.
func Table1() ([]Table1Row, error) {
	type setup struct {
		kind testbed.StorageKind
		name string
	}
	setups := []setup{{testbed.CU140, "cu140"}, {testbed.SDP10, "sdp10"}, {testbed.IntelCard, "intel"}}
	var rows []Table1Row
	for _, s := range setups {
		read := Table1Row{Device: s.name, Operation: "read"}
		write := Table1Row{Device: s.name, Operation: "write"}
		for _, compressed := range []bool{false, true} {
			data := compress.Random
			if compressed {
				data = compress.MobyDick
			}
			cfg := testbed.Config{Kind: s.kind, Compression: compressed, Data: data}
			w4, r4, err := testbed.Throughput(cfg, 4*units.KB, table1Total)
			if err != nil {
				return nil, err
			}
			w1m, r1m, err := testbed.Throughput(cfg, 1*units.MB, table1Total)
			if err != nil {
				return nil, err
			}
			if compressed {
				read.Compressed4K, read.Compressed1M = r4, r1m
				write.Compressed4K, write.Compressed1M = w4, w1m
			} else {
				read.Uncompressed4K, read.Uncompressed1M = r4, r1m
				write.Uncompressed4K, write.Uncompressed1M = w4, w1m
			}
		}
		rows = append(rows, read, write)
	}
	return rows, nil
}

// RenderTable1 formats Table 1 like the paper.
func RenderTable1(rows []Table1Row) string {
	t := &table{header: []string{"Device", "Op", "raw 4KB", "raw 1MB", "compr 4KB", "compr 1MB"}}
	for _, r := range rows {
		t.addRow(r.Device, r.Operation,
			f0(r.Uncompressed4K), f0(r.Uncompressed1M), f0(r.Compressed4K), f0(r.Compressed1M))
	}
	return "Table 1: measured throughput (KB/s), 4 KB transfers\n" + t.String()
}

// ---------------------------------------------------------------- Table 2

// Table2 returns the manufacturer-specification rows (the device catalog).
func Table2() []device.CatalogEntry { return device.Catalog() }

// RenderTable2 formats the catalog like the paper's Table 2.
func RenderTable2(entries []device.CatalogEntry) string {
	t := &table{header: []string{"Device", "Operation", "Latency", "Throughput (KB/s)", "Power (W)"}}
	for _, e := range entries {
		lat, thr := "-", "-"
		if e.Latency > 0 {
			lat = e.Latency.String()
		}
		if e.Throughput > 0 {
			thr = f0(e.Throughput)
		}
		t.addRow(e.Device, e.Operation, lat, thr, f2(e.PowerW))
	}
	return "Table 2: manufacturers' specifications\n" + t.String()
}

// ---------------------------------------------------------------- Table 3

// Table3Row summarizes one generated trace the way Table 3 does.
type Table3Row struct {
	trace.Characteristics
}

// Table3 generates the three non-synthetic workloads and characterizes the
// post-warm-start portion, exactly as the paper's Table 3 does.
func Table3(seed int64) ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range []string{"mac", "dos", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{trace.Characterize(t, 0.1)})
	}
	return rows, nil
}

// RenderTable3 formats trace characteristics like the paper.
func RenderTable3(rows []Table3Row) string {
	t := &table{header: []string{"Trace", "Duration", "Distinct KB", "Frac reads",
		"Block", "Read blks", "Write blks", "IA mean (s)", "IA max", "IA σ", "Records"}}
	for _, r := range rows {
		t.addRow(r.Name, r.Duration.String(), f0(r.DistinctKBytes), f2(r.FractionReads),
			r.BlockSize.String(), f1(r.MeanReadBlocks), f1(r.MeanWriteBlocks),
			fmt.Sprintf("%.3f", r.InterArrival.Mean()), f1(r.InterArrival.Max()),
			f1(r.InterArrival.StdDev()), fmt.Sprintf("%d", r.Records))
	}
	return "Table 3: trace characteristics (post-warm-start)\n" + t.String()
}

// ---------------------------------------------------------------- Table 4

// Table4Row is one device row of Tables 4(a)–(c).
type Table4Row struct {
	Device  DeviceSpec
	EnergyJ float64
	// Response times in ms.
	ReadMean, ReadMax, ReadSD    float64
	WriteMean, WriteMax, WriteSD float64
	Result                       *core.Result
}

// Table4 runs all seven device configurations of Table 4 against one trace
// ("mac" → 4(a), "dos" → 4(b), "hp" → 4(c)).
func Table4(traceName string, seed int64) ([]Table4Row, error) {
	t, err := Workload(traceName, seed)
	if err != nil {
		return nil, err
	}
	specs := Table4Devices()
	rows := make([]Table4Row, len(specs))
	err = fanOut(len(specs), func(i int) error {
		spec := specs[i]
		cfg := core.Config{Trace: t, DRAMBytes: fleet.DefaultDRAM(traceName)}
		if err := spec.Configure(&cfg); err != nil {
			return err
		}
		res, err := core.Run(cfg)
		if err != nil {
			return fmt.Errorf("table4 %s on %s: %w", spec, traceName, err)
		}
		rows[i] = Table4Row{
			Device:    spec,
			EnergyJ:   res.EnergyJ,
			ReadMean:  res.Read.Mean(),
			ReadMax:   res.Read.Max(),
			ReadSD:    res.Read.StdDev(),
			WriteMean: res.Write.Mean(),
			WriteMax:  res.Write.Max(),
			WriteSD:   res.Write.StdDev(),
			Result:    res,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable4 formats one of Tables 4(a)–(c).
func RenderTable4(traceName string, rows []Table4Row) string {
	t := &table{header: []string{"Device", "Params", "Energy (J)",
		"Rd mean", "Rd max", "Rd σ", "Wr mean", "Wr max", "Wr σ"}}
	for _, r := range rows {
		t.addRow(r.Device.Name, string(r.Device.Source), f0(r.EnergyJ),
			f2(r.ReadMean), f1(r.ReadMax), f1(r.ReadSD),
			f2(r.WriteMean), f1(r.WriteMax), f1(r.WriteSD))
	}
	return fmt.Sprintf("Table 4 (%s): energy and response time (ms)\n", traceName) + t.String() +
		"\n" + renderTable4Counters(traceName, rows)
}

// renderTable4Counters is the observability companion to Table 4: the
// device-activity counters behind each energy number.
func renderTable4Counters(traceName string, rows []Table4Row) string {
	t := &table{header: []string{"Device", "Params", "Spin-ups", "Erases",
		"Copied", "Host blks", "Stalls", "SRAM flushes", "Cache hit%"}}
	for _, r := range rows {
		res := r.Result
		if res == nil {
			continue
		}
		t.addRow(r.Device.Name, string(r.Device.Source),
			fmt.Sprintf("%d", res.SpinUps), fmt.Sprintf("%d", res.Erases),
			fmt.Sprintf("%d", res.CopiedBlocks), fmt.Sprintf("%d", res.HostBlocks),
			fmt.Sprintf("%d", res.WriteStalls), fmt.Sprintf("%d", res.SRAMFlushes),
			f1(res.HitRate()*100))
	}
	return fmt.Sprintf("Table 4 (%s) device activity\n", traceName) + t.String()
}
