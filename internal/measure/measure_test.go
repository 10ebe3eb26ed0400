package measure

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/platform"
	"liquidarch/internal/profiler"
)

// fakeProvider returns synthetic reports and counts how many requests
// reach it; an optional gate blocks in-flight measurements so tests can
// hold a flight open.
type fakeProvider struct {
	calls atomic.Int64
	gate  chan struct{} // when non-nil, Measure blocks until it closes
	err   error
}

func (f *fakeProvider) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	n := f.calls.Add(1)
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return &platform.RunReport{
		Config: cfg,
		Stats:  profiler.Stats{Cycles: uint64(1000 + n), Instructions: 500},
	}, nil
}

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testProgram assembles a distinct tiny program per index (the different
// immediate gives each a different image, hence a different fingerprint).
func testProgram(t *testing.T, i int) *asm.Program {
	t.Helper()
	return mustAssemble(t, fmt.Sprintf("  clr %%o0\n  mov %d, %%o1\n  halt\n", i+1))
}

func cfgWithSetKB(kb int) config.Config {
	c := config.Default()
	c.DCache.SetSizeKB = kb
	return c
}

func TestCacheHitMissCounters(t *testing.T) {
	t.Parallel()
	inner := &fakeProvider{}
	c := NewCache(inner, 8)
	prog := testProgram(t, 0)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := c.Measure(ctx, prog, config.Default(), platform.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss 2 hits", st)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("inner measured %d times, want 1", got)
	}
	if st.Entries != 1 || st.Capacity != 8 {
		t.Fatalf("entries/capacity = %d/%d", st.Entries, st.Capacity)
	}
}

func TestCacheTimingKeySharing(t *testing.T) {
	t.Parallel()
	inner := &fakeProvider{}
	c := NewCache(inner, 8)
	prog := testProgram(t, 0)
	ctx := context.Background()

	base := config.Default()
	fastread := config.Default()
	fastread.DCache.FastRead = true // cycle-neutral: same timing key

	if _, err := c.Measure(ctx, prog, base, platform.Options{}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Measure(ctx, prog, fastread, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("timing-equivalent configs measured %d times, want 1", got)
	}
	// The report must carry the caller's configuration, not the cached one.
	if !rep.Config.DCache.FastRead {
		t.Error("cached report did not stamp the caller's configuration")
	}
}

func TestCacheEvictionOrderIsLRU(t *testing.T) {
	t.Parallel()
	inner := &fakeProvider{}
	c := NewCache(inner, 2)
	ctx := context.Background()
	prog := testProgram(t, 0)
	cfgA, cfgB, cfgC := cfgWithSetKB(1), cfgWithSetKB(2), cfgWithSetKB(8)

	measure := func(cfg config.Config) {
		t.Helper()
		if _, err := c.Measure(ctx, prog, cfg, platform.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	measure(cfgA) // cache: [A]
	measure(cfgB) // cache: [B A]
	measure(cfgA) // touch A => [A B]
	measure(cfgC) // evicts B (LRU) => [C A]

	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction = %+v", st)
	}
	calls := inner.calls.Load()
	measure(cfgA) // must still be resident
	if inner.calls.Load() != calls {
		t.Error("A was evicted; LRU should have evicted B")
	}
	measure(cfgB) // must have been evicted -> re-measures
	if inner.calls.Load() != calls+1 {
		t.Error("B still resident; LRU eviction order wrong")
	}
}

func TestCacheBoundedUnderSweepLargerThanCap(t *testing.T) {
	t.Parallel()
	inner := &fakeProvider{}
	const capacity = 4
	c := NewCache(inner, capacity)
	ctx := context.Background()
	prog := testProgram(t, 0)

	// A "sweep" of 32 distinct configurations through a 4-entry cache.
	kbs := []int{1, 2, 4, 8, 16, 32}
	n := 0
	for _, kb := range kbs {
		for sets := 1; sets <= 4; sets++ {
			cfg := config.Default()
			cfg.DCache.SetSizeKB = kb
			cfg.DCache.Sets = sets
			if _, err := c.Measure(ctx, prog, cfg, platform.Options{}); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	st := c.Stats()
	if st.Entries > capacity {
		t.Fatalf("cache holds %d entries, cap %d", st.Entries, capacity)
	}
	if want := uint64(n - capacity); st.Evictions != want {
		t.Fatalf("evictions = %d, want %d", st.Evictions, want)
	}
}

func TestCacheSingleflight(t *testing.T) {
	t.Parallel()
	inner := &fakeProvider{gate: make(chan struct{})}
	c := NewCache(inner, 8)
	prog := testProgram(t, 0)
	ctx := context.Background()

	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	reps := make([]*platform.RunReport, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = c.Measure(ctx, prog, config.Default(), platform.Options{})
		}(i)
	}
	// Let the callers pile up on the single flight, then release it.
	for inner.calls.Load() == 0 {
		runtime.Gosched()
	}
	close(inner.gate)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if reps[i].Cycles() != reps[0].Cycles() {
			t.Fatalf("caller %d saw different report", i)
		}
		if reps[i] == reps[0] && i != 0 {
			t.Fatal("callers share a report pointer; each must get a copy")
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("inner measured %d times under %d concurrent callers, want 1", got, callers)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss %d hits", st, callers-1)
	}
}

func TestCacheDoesNotMemoizeErrors(t *testing.T) {
	t.Parallel()
	inner := &fakeProvider{err: errors.New("boom")}
	c := NewCache(inner, 8)
	prog := testProgram(t, 0)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := c.Measure(ctx, prog, config.Default(), platform.Options{}); err == nil {
			t.Fatal("expected error")
		}
	}
	if got := inner.calls.Load(); got != 2 {
		t.Fatalf("failed measurement retried %d times, want 2 (no error memoization)", got)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed entries left resident: %+v", st)
	}
}

func TestStorePersistenceRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	prog := testProgram(t, 0)
	cfg := cfgWithSetKB(8)
	ctx := context.Background()

	// First process: measure through a persistent provider over a real
	// simulator, spilling to disk.
	store1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p1 := NewPersistent(Simulator{}, store1)
	rep1, err := p1.Measure(ctx, prog, cfg, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if store1.Len() != 1 {
		t.Fatalf("store holds %d entries after one measurement", store1.Len())
	}

	// "Restarted" process: a fresh Store over the same directory must
	// answer from disk without touching the inner provider.
	inner := &fakeProvider{}
	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewPersistent(inner, store2)
	rep2, err := p2.Measure(ctx, prog, cfg, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != 0 {
		t.Fatal("restarted provider re-measured instead of loading from disk")
	}
	if rep1.Cycles() != rep2.Cycles() || rep1.Checksum != rep2.Checksum ||
		rep1.Stats != rep2.Stats || rep1.ICache != rep2.ICache || rep1.DCache != rep2.DCache {
		t.Fatalf("round-trip changed the report:\nsaved  %+v\nloaded %+v", rep1, rep2)
	}
	if rep2.Config != cfg {
		t.Error("loaded report does not carry the request's configuration")
	}
}

func TestStoreDistinguishesPrograms(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPersistent(&fakeProvider{}, store)
	ctx := context.Background()
	if _, err := p.Measure(ctx, testProgram(t, 1), config.Default(), platform.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Measure(ctx, testProgram(t, 2), config.Default(), platform.Options{}); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("distinct programs share a store entry: %d entries", store.Len())
	}
}

func TestForEachRunsAllAndStopsOnError(t *testing.T) {
	t.Parallel()
	var ran, running, peak atomic.Int64
	err := ForEach(context.Background(), 100, 4, func(i int) error {
		ran.Add(1)
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(100 * time.Microsecond)
		running.Add(-1)
		return nil
	})
	if err != nil || ran.Load() != 100 {
		t.Fatalf("err=%v ran=%d", err, ran.Load())
	}
	if p := peak.Load(); p > 4 {
		t.Errorf("%d tasks ran at once on 4 workers", p)
	}
	if err := ForEach(context.Background(), 0, 4, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("empty ForEach: %v", err)
	}

	ran.Store(0)
	boom := errors.New("boom")
	err = ForEach(context.Background(), 1000, 2, func(i int) error {
		if ran.Add(1) == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran.Load() == 1000 {
		t.Error("ForEach dispatched everything despite an early error")
	}
}

func TestForEachHonoursCancelledContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 50, 4, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran under a cancelled context", ran.Load())
	}
}

// TestCacheWaiterSurvivesOwnerCancellation: a waiter joining another
// caller's flight must not inherit that owner's context cancellation —
// it retries with its own live context and gets a result.
func TestCacheWaiterSurvivesOwnerCancellation(t *testing.T) {
	t.Parallel()
	inner := &fakeProvider{gate: make(chan struct{})}
	c := NewCache(inner, 8)
	prog := testProgram(t, 0)

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := c.Measure(ownerCtx, prog, config.Default(), platform.Options{})
		ownerErr <- err
	}()
	for inner.calls.Load() == 0 {
		runtime.Gosched()
	}

	waiterErr := make(chan error, 1)
	var waiterRep *platform.RunReport
	go func() {
		rep, err := c.Measure(context.Background(), prog, config.Default(), platform.Options{})
		waiterRep = rep
		waiterErr <- err
	}()
	for c.Stats().Hits == 0 { // waiter has joined the owner's flight
		runtime.Gosched()
	}

	cancelOwner()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	// The waiter must retry as the new flight owner; release its run.
	for inner.calls.Load() < 2 {
		runtime.Gosched()
	}
	close(inner.gate)
	if err := <-waiterErr; err != nil {
		t.Fatalf("waiter err = %v, want success despite owner cancellation", err)
	}
	if waiterRep == nil {
		t.Fatal("waiter got no report")
	}
}
