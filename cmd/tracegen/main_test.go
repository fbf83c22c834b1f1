package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/workload"
)

// TestReadTraceSniffsFormats: -describe reads a trace written in either
// format and prints the same summary as the generated trace; a missing file
// or a corrupt binary one errors rather than panicking.
func TestReadTraceSniffsFormats(t *testing.T) {
	tr, err := workload.Synth(workload.SynthConfig{Seed: 1, Ops: 50})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	printSummary(&want, tr)
	dir := t.TempDir()
	for _, c := range []struct {
		name   string
		encode func(f *os.File) error
	}{
		{"text", func(f *os.File) error { return trace.Encode(f, tr) }},
		{"binary", func(f *os.File) error { return trace.EncodeBinary(f, tr) }},
	} {
		path := filepath.Join(dir, c.name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.encode(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := describeFile(&out, path); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.String() != want.String() {
			t.Errorf("%s: summary\n%s\nwant\n%s", c.name, out.String(), want.String())
		}
	}
	if err := describeFile(&bytes.Buffer{}, filepath.Join(dir, "nope")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("MSTB1garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := describeFile(&bytes.Buffer{}, bad); err == nil {
		t.Error("corrupt binary accepted")
	}
}
