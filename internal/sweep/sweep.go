// Package sweep is the program's one worker pool. It runs independent
// indices on a bounded set of goroutines and hands what they produce back
// in index order, so the result is the same for any worker count. The
// paper's figure sweeps, the fleet's job runs and obsreport's shard decoder
// all fan out on Run.
package sweep

import (
	"context"
	"sync"
)

// window is how many indices per worker Run may start ahead of its
// consumer. Fig. 2's and Table 4's sweeps (8 and 7 runs per call) fit in
// the window of two workers.
const window = 8

// Run calls produce(i, emit) for i = 0, …, n-1 on up to workers goroutines
// at once and hands every output emitted to consume on the calling
// goroutine, in index order and, within an index, in emit order, so what
// consume builds is the same for any worker count. Indices start in
// ascending order, and index i starts only once consume has finished index
// i−W, where the window W is 8 × workers: a slow index holds back at most W
// indices, whatever n is. An index buffers one output until consume reaches
// it; a further emit waits.
//
// Once ctx is done no further index starts, and every index that started
// is still consumed in full. Once consume returns false no further index
// starts, nothing more is consumed, and an emit that would wait returns
// false instead. Run returns after the last produce has returned.
func Run[T any](ctx context.Context, n, workers int, produce func(i int, emit func(T) bool), consume func(i int, out T) bool) {
	workers = max(1, min(workers, n))
	// One token per index that may start, and each finished index returns
	// one: the tokens held and the indices started but not finished never
	// sum past W, so returning a token never blocks.
	tokens := make(chan struct{}, window*workers)
	for range cap(tokens) {
		tokens <- struct{}{}
	}
	slots := make(chan struct{}, workers) // semaphore: one per running produce
	// started carries each started index's outputs to the consumer, in
	// index order. It holds at most the W indices started and not
	// finished, so sending on it never blocks.
	started := make(chan chan T, cap(tokens))
	// dispatch is done when ctx is, or once consume returns false; stop
	// closes then too, and only it reaches emit.
	dispatch, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	go func() {
		defer close(started)
		for i := range n {
			select {
			case <-tokens:
			case <-dispatch.Done():
				return
			}
			select {
			case slots <- struct{}{}:
			case <-dispatch.Done():
				return
			}
			if dispatch.Err() != nil {
				return // a select chooses at random among ready cases
			}
			out := make(chan T, 1)
			started <- out
			wg.Add(1)
			go func() {
				defer func() {
					close(out)
					<-slots
					wg.Done()
				}()
				produce(i, func(v T) bool {
					select {
					case out <- v:
						return true
					case <-stop:
						return false
					}
				})
			}()
		}
	}()

	// Every wg.Add happens before the dispatcher closes started, and both
	// ways out of this loop wait for that close.
	defer wg.Wait()
	i := 0
	for out := range started {
		for v := range out {
			if !consume(i, v) {
				cancel()
				close(stop)
				for range started {
				}
				return
			}
		}
		tokens <- struct{}{}
		i++
	}
}
