package measure

import (
	"context"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) on at most workers concurrent
// goroutines, stopping the dispatch of new work at the first error or
// context cancellation and returning the first error observed (in-flight
// work drains before it returns). workers <= 0 uses runtime.GOMAXPROCS(0):
// one run per processor the Go scheduler will actually run at once.
//
// This is the one worker pool shared by every measurement fan-out — the
// model builder's ~52 single-change jobs, the exhaustive sweeps, the
// daemon's per-job measurement parallelism — replacing the per-package
// sem/WaitGroup copies.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
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
	sem := make(chan struct{}, max(workers, 1))
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			setErr(err)
			break
		}
		if failed() {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				setErr(err)
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}
