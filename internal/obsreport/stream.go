package obsreport

// Sharded streaming ingestion: StreamFiles decodes one or more NDJSON
// inputs through the fast scanner and feeds every event to a set of
// Reporters at constant memory — no []obs.Event is ever materialized.
// Multi-file inputs decode on sweep.Run, each file streaming its events in
// chunks while it is still decoding. Events are always
// delivered in file-argument order, then line order within a file, so
// streaming output is byte-identical to concatenating the inputs and
// decoding serially.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/sweep"
)

// streamBatch is how many events a decoding file hands to the reporters at
// a time. Chunks amortize channel operations; with one chunk buffered per
// file they also bound each in-flight file to a few hundred KB.
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
	// Stdin is the reader consumed for the "-" pseudo-path. It must appear
	// at most once in the path list.
	Stdin io.Reader
}

// chunk is a run of one file's events. A file's last chunk also carries
// its skip count and the error that ended it, if any.
type chunk struct {
	events  []obs.Event
	skipped int64
	err     error
}

// StreamFiles decodes the named NDJSON files ("-" means opt.Stdin) and
// calls every reporter's Observe for each event, in deterministic order:
// all of paths[0] first, then paths[1], and so on, each in line order.
// Files decode on up to GOMAXPROCS goroutines: the file being delivered
// decodes while its events are observed, and each later one waits once it
// has one chunk buffered and the next ready, which keeps memory constant.
// Delivery order — and therefore every rendered report — does not depend
// on which file finishes first. The first error stops the stream, and
// StreamFiles returns it.
func StreamFiles(paths []string, opt StreamOptions, reporters ...Reporter) (StreamStats, error) {
	var stats StreamStats
	if len(paths) == 0 {
		return stats, errors.New("obsreport: no input streams")
	}
	var err error
	sweep.Run(context.Background(), len(paths), runtime.GOMAXPROCS(0), func(i int, emit func(chunk) bool) {
		decodeFile(paths[i], opt, emit)
	}, func(_ int, c chunk) bool {
		for _, e := range c.events {
			for _, r := range reporters {
				r.Observe(e)
			}
		}
		stats.Events += int64(len(c.events))
		stats.Skipped += c.skipped
		err = c.err
		return err == nil
	})
	return stats, err
}

// decodeFile decodes one input and emits its events in chunks of
// streamBatch. Its last chunk holds, at the end of the input, the rest of
// the events and the skip count, or else only the error that ended the
// decode: the events since the last full chunk are dropped. It stops early
// when emit returns false.
func decodeFile(path string, opt StreamOptions, emit func(chunk) bool) {
	label := path
	var r io.Reader
	if path == "-" {
		label = "stdin"
		if opt.Stdin == nil {
			emit(chunk{err: errors.New("stdin: no reader configured for \"-\"")})
			return
		}
		r = opt.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			emit(chunk{err: err})
			return
		}
		defer f.Close()
		r = f
	}

	d := NewDecoder(r)
	// The first chunk grows by append, so a short stream allocates for the
	// events it has (FuzzDecode bounds the heap per input byte). Once a
	// chunk has filled, the stream is long, and each later chunk is made
	// whole when its first event arrives.
	var batch []obs.Event
	whole := false
	for {
		e, err := d.Next()
		if err == io.EOF {
			emit(chunk{events: batch, skipped: int64(d.Malformed())})
			return
		}
		if err != nil {
			if opt.Lenient && d.sc.Err() == nil { // malformed line, framing intact
				continue
			}
			emit(chunk{err: fmt.Errorf("%s: %w", label, err)})
			return
		}
		if batch == nil && whole {
			batch = make([]obs.Event, 0, streamBatch)
		}
		batch = append(batch, e)
		if len(batch) == streamBatch {
			whole = true
			if !emit(chunk{events: batch}) {
				return
			}
			batch = nil
		}
	}
}
