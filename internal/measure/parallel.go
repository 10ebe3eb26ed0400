package measure

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n), dispatched in increasing i,
// on at most workers concurrent goroutines, stopping the dispatch of new
// work at the first error or context cancellation and returning the
// first error observed (in-flight work drains before it returns).
// workers <= 0 uses runtime.GOMAXPROCS(0): one run per processor the Go
// scheduler will actually run at once.
//
// This is the one worker pool shared by every measurement fan-out — the
// model builder's ~52 single-change jobs, the exhaustive sweeps, the
// daemon's per-job measurement parallelism — replacing the per-package
// sem/WaitGroup copies. Each worker goroutine takes the next index until
// none is left: a goroutine per index would start every measurement on a
// fresh stack and grow it through the provider stack's frames, which was
// a fifth of a store-answered model build's CPU.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 0)
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     atomic.Int64
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					setErr(err)
					return
				}
				if failed() {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					setErr(err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
