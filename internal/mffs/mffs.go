// Package mffs is a behavioral model of version 2.00 of the Microsoft
// Flash File System, as characterized by the paper's micro-benchmarks (§3):
//
//   - Writes: "the latency of each write increases linearly as the file
//     grows, apparently because data already written to the flash card are
//     written again, even in the absence of cleaning" (Figure 1). The model
//     charges each write a fixed bookkeeping overhead plus a rewrite of a
//     fixed fraction of the file's bytes written so far.
//   - Reads: "throughput is unexpectedly poor for reading large files"
//     (Table 1). MFFS chains file extents through linked lists in flash;
//     the model charges a scan cost proportional to the file offset.
//   - Compression is built in (§3) and always on.
//
// The constants are fits to the paper's measurements, not structural
// parameters; they live here so the testbed and the experiments share one
// definition.
package mffs

import (
	"mobilestorage/internal/compress"
	"mobilestorage/internal/units"
)

// Model holds the MFFS 2.00 cost parameters.
type Model struct {
	// Compression is the built-in compressor.
	Compression compress.Model
	// WriteOverhead is the fixed per-write bookkeeping cost (FAT-style
	// table updates done in software on the 25 MHz OmniBook).
	WriteOverhead units.Time
	// RewriteFraction is the share of the file's previously written
	// (compressed) bytes rewritten on each subsequent write — the Figure 1
	// anomaly. Zero models a fixed MFFS.
	RewriteFraction float64
	// ReadScanPerKB is the linked-list walk cost per KB of file offset.
	ReadScanPerKB units.Time
	// ReadOverhead is the fixed per-read software cost.
	ReadOverhead units.Time
}

// New returns the MFFS 2.00 model fit to the paper's Table 1 and Figure 1.
func New() Model {
	return Model{
		Compression:     compress.MFFS(),
		WriteOverhead:   38 * units.Millisecond,
		RewriteFraction: 0.10,
		ReadScanPerKB:   200 * units.Microsecond,
		ReadOverhead:    500 * units.Microsecond,
	}
}

// Fixed returns a hypothetical repaired MFFS without the large-file
// pathologies ("newer versions of the Microsoft Flash File System should
// address the degradation imposed by large files", §7). Used by ablation
// experiments.
func Fixed() Model {
	m := New()
	m.RewriteFraction = 0
	m.ReadScanPerKB = 0
	return m
}

// File tracks the per-file state the cost model needs.
type File struct {
	// written is the compressed bytes appended to the file so far.
	written units.Bytes
}

// Reset empties the file (truncation or deletion).
func (f *File) Reset() { f.written = 0 }

// WriteCost returns the device bytes and software time for appending size
// logical bytes of the given payload to the file, updating file state.
//
// deviceBytes covers the new (compressed) data plus the anomalous rewrite
// of earlier file data; software covers compression CPU time and fixed
// bookkeeping.
func (m Model) WriteCost(f *File, size units.Bytes, d compress.Data) (deviceBytes units.Bytes, software units.Time) {
	compressed := m.Compression.CompressedSize(size, d)
	rewrite := units.Bytes(float64(f.written) * m.RewriteFraction)
	f.written += compressed
	return compressed + rewrite, m.WriteOverhead + m.Compression.CPUTime(size, d)
}

// ReadCost returns the device bytes and software time for reading size
// logical bytes at the given offset of a file holding the given payload.
func (m Model) ReadCost(offset, size units.Bytes, d compress.Data) (deviceBytes units.Bytes, software units.Time) {
	compressed := m.Compression.CompressedSize(size, d)
	scan := units.Time(float64(m.ReadScanPerKB) * offset.KBytes())
	return compressed, m.ReadOverhead + scan + m.Compression.CPUTime(size, d)
}
