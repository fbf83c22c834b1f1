package fleet

import (
	"context"
	"sync"
)

// Sweep runs do(0), …, do(n-1) on up to workers goroutines and hands each
// output to merge on the calling goroutine in strict index order, so what
// merge builds is the same for any worker count. Workers take indices in
// ascending order. Once ctx is done no further index starts, and every
// index that started still merges; Sweep returns after the last merge.
func Sweep[T any](ctx context.Context, n, workers int, do func(i int) T, merge func(i int, out T)) {
	workers = max(1, min(workers, n))
	type result struct {
		i   int
		out T
	}
	indices := make(chan int)
	// One slot per worker: a finished worker hands off its output and takes
	// the next index without waiting for the merge.
	results := make(chan result, workers)

	go func() {
		defer close(indices)
		for i := 0; i < n; i++ {
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				results <- result{i, do(i)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// The pending map never exceeds the worker count: a worker can only run
	// ahead while earlier indices are in flight on its siblings.
	pending := make(map[int]T, workers)
	next := 0
	for r := range results {
		pending[r.i] = r.out
		for {
			out, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			merge(next, out)
			next++
		}
	}
}
