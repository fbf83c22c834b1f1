package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// once runs do on every index through Run, one output per index, the way
// the figure sweeps and the fleet scheduler call it.
func once[T any](ctx context.Context, n, workers int, do func(i int) T, merge func(i int, out T)) {
	Run(ctx, n, workers, func(i int, emit func(T) bool) { emit(do(i)) },
		func(i int, out T) bool { merge(i, out); return true })
}

// TestRunOrder: for any worker count, produce runs exactly once per index
// and consume sees every index in ascending order with that index's
// output. Run with -race: the outputs cross goroutines only through Run.
func TestRunOrder(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 7, n + 3} {
		calls := make([]atomic.Int32, n)
		var merged []int
		once(context.Background(), n, workers, func(i int) int {
			calls[i].Add(1)
			return i * i
		}, func(i, out int) {
			if out != i*i {
				t.Errorf("workers=%d: index %d consumed output %d", workers, i, out)
			}
			merged = append(merged, i)
		})
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("workers=%d: produce(%d) ran %d times", workers, i, c)
			}
		}
		if len(merged) != n {
			t.Fatalf("workers=%d: %d outputs consumed, want %d", workers, len(merged), n)
		}
		for i, got := range merged {
			if got != i {
				t.Fatalf("workers=%d: output %d came from index %d", workers, i, got)
			}
		}
	}
}

// TestRunCancel: a cancelled ctx stops dispatch, and every index that
// started is still consumed, in order. A ctx done before Run starts none.
func TestRunCancel(t *testing.T) {
	const n, cancelAt = 1000, 10
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for range 100 {
		once(done, n, 4, func(i int) struct{} {
			t.Errorf("index %d started under a done ctx", i)
			return struct{}{}
		}, func(int, struct{}) {})
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		started := make([]atomic.Bool, n)
		var merged []int
		once(ctx, n, workers, func(i int) struct{} {
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
			t.Fatalf("workers=%d: %d of %d indices consumed after a cancel at %d", workers, len(merged), n, cancelAt)
		}
		for i := range started {
			if want := i < len(merged); started[i].Load() != want {
				t.Errorf("workers=%d: index %d started=%v, but %d consumed", workers, i, !want, len(merged))
			}
		}
		for i, got := range merged {
			if got != i {
				t.Fatalf("workers=%d: output %d came from index %d", workers, i, got)
			}
		}
	}
}

// TestRunBoundsRunAhead: while index 0 is slow, no index starts past the
// window of the consumed prefix. Index 0 waits until some index would start
// past it, or 200 ms.
func TestRunBoundsRunAhead(t *testing.T) {
	const n, workers = 200, 2
	var mu sync.Mutex
	merged := 0
	overrun := make(chan struct{})
	var overran sync.Once
	once(context.Background(), n, workers, func(i int) struct{} {
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
		if i >= m+window*workers {
			t.Errorf("index %d started with %d consumed, window %d", i, m, window*workers)
			overran.Do(func() { close(overrun) })
		}
		return struct{}{}
	}, func(int, struct{}) {
		mu.Lock()
		merged++
		mu.Unlock()
	})
}

// FuzzRun drives Run with n indices on a number of workers, where index i
// emits (i+shift) mod (emits+1) outputs, consume returns false on the
// first output of index stopAt, and produce(cancelAt) cancels the ctx
// (stopAt or cancelAt ≥ n turns that off). It checks that every index is
// produced at most once, and exactly once when nothing stops the run; that
// the started indices are a prefix; that outputs arrive in (index, emit)
// order and, unless consume stopped the run, every output of every
// started index arrives; that no index starts past the window; and that
// no produce, and no goroutine of Run's, outlives Run.
func FuzzRun(f *testing.F) {
	f.Add(uint8(20), uint8(3), uint8(2), uint8(0), uint8(255), uint8(255))
	f.Add(uint8(64), uint8(1), uint8(1), uint8(0), uint8(255), uint8(255))
	f.Add(uint8(50), uint8(4), uint8(3), uint8(1), uint8(7), uint8(255))
	f.Add(uint8(10), uint8(2), uint8(1), uint8(1), uint8(0), uint8(255))
	f.Add(uint8(50), uint8(2), uint8(0), uint8(0), uint8(255), uint8(255))
	f.Add(uint8(90), uint8(5), uint8(4), uint8(2), uint8(255), uint8(12))
	f.Add(uint8(30), uint8(8), uint8(2), uint8(1), uint8(3), uint8(2))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, nb, workersb, emitsb, shift, stopAt, cancelAt uint8) {
		n, workers := int(nb)%100, int(workersb)%12
		emits := func(i int) int { return (i + int(shift)) % (int(emitsb)%6 + 1) }
		w := window * max(1, min(workers, n))

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		before := runtime.NumGoroutine()
		produced := make([]atomic.Int32, n)
		returned := make([]atomic.Bool, n)
		consumed := make([]atomic.Int32, n)
		var active atomic.Int32
		// finished counts the indices that Run may treat as finished: an
		// index is finished only once its produce has returned and all its
		// outputs were consumed, and only after every index before it.
		finished := func() int {
			done := 0
			for done < n && returned[done].Load() && int(consumed[done].Load()) == emits(done) {
				done++
			}
			return done
		}
		type out struct{ i, k int }
		var got []out
		stopped := false
		Run(ctx, n, workers, func(i int, emit func(out) bool) {
			active.Add(1)
			defer active.Add(-1)
			defer returned[i].Store(true)
			produced[i].Add(1)
			if done := finished(); i >= done+w {
				t.Errorf("index %d started with %d finished, window %d", i, done, w)
			}
			if i == int(cancelAt) {
				cancel()
			}
			for k := range emits(i) {
				if !emit(out{i, k}) {
					return
				}
			}
		}, func(i int, o out) bool {
			if o.i != i {
				t.Errorf("output %+v consumed as index %d", o, i)
			}
			got = append(got, o)
			consumed[i].Add(1)
			if i == int(stopAt) {
				stopped = true
				return false
			}
			return true
		})
		if a := active.Load(); a != 0 {
			t.Errorf("%d produce calls outlived Run", a)
		}

		s := 0 // started indices
		for s < n && produced[s].Load() == 1 {
			s++
		}
		for i := range produced {
			if c := produced[i].Load(); c > 1 || c == 1 && i >= s {
				t.Errorf("index %d produced %d times with indices 0..%d started", i, c, s-1)
			}
		}
		if !stopped && int(cancelAt) >= n && s != n {
			t.Errorf("%d of %d indices started with nothing stopping the run", s, n)
		}
		var want []out
		for i := range s {
			for k := range emits(i) {
				want = append(want, out{i, k})
			}
		}
		if !stopped && len(got) != len(want) {
			t.Errorf("consumed %d outputs of the started indices' %d", len(got), len(want))
		}
		if stopped && (len(got) == 0 || got[len(got)-1].i != int(stopAt) || got[len(got)-1].k != 0) {
			t.Errorf("consume stopped at index %d, but the last output consumed is not its first", stopAt)
		}
		for j := range got {
			if j >= len(want) || got[j] != want[j] {
				t.Fatalf("output %d consumed is %+v, want (index, emit) order", j, got[j])
			}
		}

		// Run's own goroutines have called wg.Done or closed started by
		// now, and exit right after.
		for range 1000 {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("goroutines grew from %d to %d across Run", before, runtime.NumGoroutine())
	})
}
