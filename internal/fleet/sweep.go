package fleet

import (
	"context"
	"sync"
)

// sweepWindow is how many indices per worker a sweep may run ahead of its
// merge. Fig. 2's and Table 4's sweeps (8 and 7 runs per call) fit in the
// window of two workers.
const sweepWindow = 8

// Sweep runs do(0), …, do(n-1) on up to workers goroutines and hands each
// output to merge on the calling goroutine in strict index order, so what
// merge builds is the same for any worker count. Workers take indices in
// ascending order, and index i starts only once index i−W has merged,
// where the window W is sweepWindow × workers: a slow index holds back at
// most W outputs, whatever n is. Once ctx is done no further index starts,
// and every index that started still merges; Sweep returns after the last
// merge.
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
	// One token per index that may start, and each merge returns one: the
	// tokens held and the indices started but not merged never sum past W,
	// so returning a token never blocks.
	window := sweepWindow * workers
	tokens := make(chan struct{}, window)
	for range window {
		tokens <- struct{}{}
	}

	go func() {
		defer close(indices)
		for i := 0; i < n; i++ {
			select {
			case <-tokens:
			case <-ctx.Done():
				return
			}
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

	// The window bounds the pending map: every index in it started, and
	// none has merged.
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
			tokens <- struct{}{}
		}
	}
}
