package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"mobilestorage/internal/units"
)

// Binary trace format: a compact alternative to the text codec for large
// generated traces (the hp workload is ~29k records; a day-scale desktop
// trace at the paper's op rates would be millions). Layout:
//
//	magic "MSTB1" | name len+bytes | blocksize uvarint | record count uvarint
//	per record: time-delta uvarint (µs) | op byte | file uvarint |
//	            offset uvarint | size uvarint
//
// Time deltas exploit the sortedness invariant; varints make small values
// (the common case: sub-second gaps, small files) one or two bytes. The
// binary form of the mac trace is ~6× smaller than the text form.

// binaryMagic identifies the format and version.
var binaryMagic = []byte("MSTB1")

// ReadFile loads a trace file in either format, telling the binary one by
// its magic.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, binaryMagic) {
		return DecodeBinary(bytes.NewReader(data))
	}
	return Decode(bytes.NewReader(data))
}

// EncodeBinary serializes a trace in the binary format. The trace must be
// sorted (Validate enforces this for all constructed traces).
func EncodeBinary(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(t.BlockSize)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Records))); err != nil {
		return err
	}
	var prev units.Time
	for _, r := range t.Records {
		if err := putUvarint(uint64(r.Time - prev)); err != nil {
			return err
		}
		prev = r.Time
		if err := bw.WriteByte(byte(r.Op)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.File)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.Offset)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.Size)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeBinary parses a trace in the binary format.
func DecodeBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != string(binaryMagic) {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: name: %w", err)
	}
	blockSize, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: block size: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: record count: %w", err)
	}
	const maxRecords = 1 << 30
	if count > maxRecords {
		return nil, fmt.Errorf("trace: unreasonable record count %d", count)
	}
	// The count is the input's claim, not a measurement: preallocate at most
	// maxPrealloc records (128 KiB) and let append grow the slice as records
	// actually parse, so a few header bytes cannot request gigabytes.
	const maxPrealloc = 1 << 12
	t := &Trace{
		Name:      string(name),
		BlockSize: units.Bytes(blockSize),
		Records:   make([]Record, 0, min(count, maxPrealloc)),
	}
	var now units.Time
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d time: %w", i, err)
		}
		now += units.Time(delta)
		opByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d op: %w", i, err)
		}
		if opByte > byte(Delete) {
			return nil, fmt.Errorf("trace: record %d bad op %d", i, opByte)
		}
		file, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d file: %w", i, err)
		}
		if file > 1<<32-1 {
			return nil, fmt.Errorf("trace: record %d file id %d overflows", i, file)
		}
		offset, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d offset: %w", i, err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d size: %w", i, err)
		}
		t.Records = append(t.Records, Record{
			Time:   now,
			Op:     Op(opByte),
			File:   uint32(file),
			Offset: units.Bytes(offset),
			Size:   units.Bytes(size),
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
