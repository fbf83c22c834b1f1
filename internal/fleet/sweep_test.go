package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSweepOrder: for any worker count, do runs exactly once per index and
// merge sees every index in ascending order with that index's output. Run
// with -race: the outputs cross goroutines only through Sweep.
func TestSweepOrder(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 7, n + 3} {
		calls := make([]atomic.Int32, n)
		var merged []int
		Sweep(context.Background(), n, workers, func(i int) int {
			calls[i].Add(1)
			return i * i
		}, func(i, out int) {
			if out != i*i {
				t.Errorf("workers=%d: index %d merged output %d", workers, i, out)
			}
			merged = append(merged, i)
		})
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("workers=%d: do(%d) ran %d times", workers, i, c)
			}
		}
		if len(merged) != n {
			t.Fatalf("workers=%d: %d merges, want %d", workers, len(merged), n)
		}
		for i, got := range merged {
			if got != i {
				t.Fatalf("workers=%d: merge %d saw index %d", workers, i, got)
			}
		}
	}
}

// TestSweepCancel: a cancelled ctx stops dispatch, and every index that
// started still merges, in order.
func TestSweepCancel(t *testing.T) {
	const n, cancelAt = 1000, 10
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		started := make([]atomic.Bool, n)
		var merged []int
		Sweep(ctx, n, workers, func(i int) struct{} {
			started[i].Store(true)
			if i == cancelAt {
				cancel()
			}
			return struct{}{}
		}, func(i int, _ struct{}) {
			merged = append(merged, i)
		})
		cancel()
		if len(merged) <= cancelAt || len(merged) == n {
			t.Fatalf("workers=%d: %d of %d indices merged after a cancel at %d", workers, len(merged), n, cancelAt)
		}
		for i := range started {
			if want := i < len(merged); started[i].Load() != want {
				t.Errorf("workers=%d: index %d started=%v, but %d merged", workers, i, !want, len(merged))
			}
		}
		for i, got := range merged {
			if got != i {
				t.Fatalf("workers=%d: merge %d saw index %d", workers, i, got)
			}
		}
	}
}

// TestSweepBoundsRunAhead: while index 0 is slow, no index starts past the
// window of the merged prefix. Index 0 waits until some index would start
// past it, or 200 ms.
func TestSweepBoundsRunAhead(t *testing.T) {
	const n, workers = 200, 2
	window := sweepWindow * workers
	var mu sync.Mutex
	merged := 0
	overrun := make(chan struct{})
	var once sync.Once
	Sweep(context.Background(), n, workers, func(i int) struct{} {
		if i == 0 {
			select {
			case <-overrun:
			case <-time.After(200 * time.Millisecond):
			}
			return struct{}{}
		}
		mu.Lock()
		m := merged
		mu.Unlock()
		if i >= m+window {
			t.Errorf("index %d started with %d merged, window %d", i, m, window)
			once.Do(func() { close(overrun) })
		}
		return struct{}{}
	}, func(int, struct{}) {
		mu.Lock()
		merged++
		mu.Unlock()
	})
}
