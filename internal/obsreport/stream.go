package obsreport

// Sharded streaming ingestion: StreamFiles decodes one or more NDJSON
// inputs through the fast scanner and feeds every event to a set of
// Reporters at constant memory — no []obs.Event is ever materialized.
// Multi-file inputs decode in parallel under a bounded worker pool of their
// own: unlike fleet.Sweep, which merges one output per index, it streams
// each file's events in batches while the file is still decoding. Events
// are always delivered in file-argument order, then line order within a
// file, so streaming output is byte-identical to concatenating the inputs
// and decoding serially.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"mobilestorage/internal/obs"
)

// streamBatch is how many events a decode worker hands to the fan-in at a
// time. Batches amortize channel operations; with a small per-channel
// buffer they also bound each in-flight file to a few hundred KB.
const streamBatch = 2048

// StreamStats summarizes one streaming pass.
type StreamStats struct {
	// Events counts events delivered to the reporters.
	Events int64
	// Skipped counts malformed lines dropped in lenient mode.
	Skipped int64
}

// StreamOptions configures StreamFiles.
type StreamOptions struct {
	// Lenient skips malformed lines instead of aborting (scanner-level
	// errors still abort: past an oversized line the framing is gone).
	Lenient bool
	// Workers caps decode concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Stdin is the reader consumed for the "-" pseudo-path. It must appear
	// at most once in the path list.
	Stdin io.Reader
}

// fileResult carries one input's decoded batches to the fan-in. err and
// skipped are written by the worker before it closes batches, so the
// channel close publishes them.
type fileResult struct {
	batches chan []obs.Event
	err     error
	skipped int64
}

// StreamFiles decodes the named NDJSON files ("-" means opt.Stdin) and
// calls every reporter's Observe for each event, in deterministic order:
// all of paths[0] first, then paths[1], and so on, each in line order.
// Decoding runs ahead on parallel workers, so the wall-clock cost of a
// multi-file sweep approaches max(file) rather than sum(file), while
// delivery order — and therefore every rendered report — is unchanged.
func StreamFiles(paths []string, opt StreamOptions, reporters ...Reporter) (StreamStats, error) {
	var stats StreamStats
	if len(paths) == 0 {
		return stats, errors.New("obsreport: no input streams")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(paths) {
		workers = len(paths)
	}

	// done aborts in-flight workers when the fan-in returns early on error.
	done := make(chan struct{})
	defer close(done)

	results := make([]*fileResult, len(paths))
	for i := range results {
		results[i] = &fileResult{batches: make(chan []obs.Event, 2)}
	}

	// Launch workers in file order under a semaphore. In-order launch is
	// what makes the fan-in deadlock-free: the file it is draining always
	// has a running (or finished) worker, never one parked behind later
	// files' slots.
	sem := make(chan struct{}, workers)
	go func() {
		for i, p := range paths {
			select {
			case sem <- struct{}{}:
			case <-done:
				// Fan-in already returned; nobody will read this channel,
				// but close it so the loop owns every unstarted result.
				close(results[i].batches)
				continue
			}
			go func(fr *fileResult, path string) {
				defer func() { <-sem }()
				decodeInto(path, opt, fr, done)
			}(results[i], p)
		}
	}()

	for _, fr := range results {
		for batch := range fr.batches {
			for _, e := range batch {
				for _, r := range reporters {
					r.Observe(e)
				}
			}
			stats.Events += int64(len(batch))
		}
		if fr.err != nil {
			return stats, fr.err
		}
		stats.Skipped += fr.skipped
	}
	return stats, nil
}

// decodeInto decodes one input into fr.batches, closing the channel when
// done. Events decoded before a fatal error are dropped, matching the
// strict CLI behavior of aborting the whole report.
func decodeInto(path string, opt StreamOptions, fr *fileResult, done <-chan struct{}) {
	defer close(fr.batches)

	label := path
	var r io.Reader
	if path == "-" {
		label = "stdin"
		if opt.Stdin == nil {
			fr.err = errors.New("stdin: no reader configured for \"-\"")
			return
		}
		r = opt.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			fr.err = err
			return
		}
		defer f.Close()
		r = f
	}

	d := NewDecoder(r)
	// The first batch grows by append, so a short stream allocates for the
	// events it has (FuzzDecode bounds the heap per input byte). Once a
	// batch has filled, the stream is long, and each later batch is made
	// whole when its first event arrives.
	var batch []obs.Event
	whole := false
	send := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case fr.batches <- batch:
			batch = nil
			return true
		case <-done:
			return false
		}
	}
	defer func() { fr.skipped = int64(d.Malformed()) }()
	for {
		e, err := d.Next()
		if err == io.EOF {
			send()
			return
		}
		if err != nil {
			if opt.Lenient && d.sc.Err() == nil { // malformed line, framing intact
				continue
			}
			fr.err = fmt.Errorf("%s: %w", label, err)
			return
		}
		if batch == nil && whole {
			batch = make([]obs.Event, 0, streamBatch)
		}
		batch = append(batch, e)
		if len(batch) == streamBatch {
			whole = true
			if !send() {
				return
			}
		}
	}
}
