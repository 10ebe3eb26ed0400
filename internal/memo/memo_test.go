package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value returns a computation that counts its runs and yields v.
func value(runs *atomic.Int64, v int) func() (int, error) {
	return func() (int, error) {
		runs.Add(1)
		return v, nil
	}
}

// inFlight starts an owner of key whose computation blocks until
// release is closed (or ctx ends) and waits until it is running.
func inFlight(t *testing.T, c *Cache[string, int], ctx context.Context, key string, v int, release chan struct{}) chan error {
	t.Helper()
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, key, func() (int, error) {
			close(started)
			select {
			case <-release:
				return v, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		})
		done <- err
	}()
	<-started
	return done
}

// waitForHits blocks until the cache has counted n hits, i.e. n callers
// have joined an entry.
func waitForHits(t *testing.T, c *Cache[string, int], n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Hits < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined", c.Stats().Hits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDoComputesOncePerKeyUnderConcurrency(t *testing.T) {
	c := New[string, int](8)
	var runs atomic.Int64
	release := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	outcomes := make([]Outcome, callers)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "k", func() (int, error) {
				runs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("caller %d: got %d, %v", i, v, err)
			}
			outcomes[i] = out
		}()
	}
	waitForHits(t, c, callers-1)
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("computation ran %d times, want 1", n)
	}
	count := map[Outcome]int{}
	for _, o := range outcomes {
		count[o]++
	}
	if count[Miss] != 1 || count[Wait] != callers-1 {
		t.Fatalf("outcomes %v, want 1 miss and %d waits", count, callers-1)
	}
	if _, out, _ := c.Do(context.Background(), "k", value(&runs, 0)); out != Hit {
		t.Fatalf("resident entry answered with %v, want hit", out)
	}
	if st := c.Stats(); st.Hits != callers || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWaiterRetriesWhenOwnerIsCancelled(t *testing.T) {
	c := New[string, int](8)
	ownerCtx, cancel := context.WithCancel(context.Background())
	ownerDone := inFlight(t, c, ownerCtx, "k", 1, make(chan struct{}))

	var runs atomic.Int64
	type result struct {
		v   int
		out Outcome
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, out, err := c.Do(context.Background(), "k", value(&runs, 7))
		waiter <- result{v, out, err}
	}()
	waitForHits(t, c, 1)
	cancel()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner: %v, want context.Canceled", err)
	}
	r := <-waiter
	if r.err != nil || r.v != 7 || r.out != Miss {
		t.Fatalf("waiter got %d, %v, %v; want its own computation (7, miss, nil)", r.v, r.out, r.err)
	}
	if runs.Load() != 1 {
		t.Fatalf("waiter computed %d times, want 1", runs.Load())
	}
}

func TestWaiterGivesUpOnItsOwnCancellation(t *testing.T) {
	c := New[string, int](8)
	release := make(chan struct{})
	ownerDone := inFlight(t, c, context.Background(), "k", 5, release)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, out, err := c.Do(ctx, "k", value(new(atomic.Int64), 0)); !errors.Is(err, context.Canceled) || out != Wait {
		t.Fatalf("cancelled waiter: %v, %v; want wait, context.Canceled", out, err)
	}
	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner: %v", err)
	}
}

func TestFailuresAreNotMemoized(t *testing.T) {
	c := New[string, int](8)
	boom := errors.New("boom")
	var runs atomic.Int64
	fail := func() (int, error) {
		runs.Add(1)
		return 0, boom
	}
	if _, out, err := c.Do(context.Background(), "k", fail); !errors.Is(err, boom) || out != Miss {
		t.Fatalf("first call: %v, %v", out, err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed entry stayed resident: %+v", st)
	}
	v, out, err := c.Do(context.Background(), "k", value(&runs, 3))
	if err != nil || v != 3 || out != Miss {
		t.Fatalf("retry: %d, %v, %v", v, out, err)
	}
	if runs.Load() != 2 {
		t.Fatalf("runs %d, want 2", runs.Load())
	}
}

// A non-context failure is handed to the waiters as is: they do not
// retry, since the computation itself failed.
func TestWaitersShareAFailure(t *testing.T) {
	c := New[string, int](8)
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 0, boom
	})
	<-started
	waiter := make(chan error, 1)
	var runs atomic.Int64
	go func() {
		_, _, err := c.Do(context.Background(), "k", value(&runs, 1))
		waiter <- err
	}()
	waitForHits(t, c, 1)
	close(release)
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("waiter: %v, want the owner's failure", err)
	}
	if runs.Load() != 0 {
		t.Fatal("waiter recomputed a failed flight")
	}
}

func TestLeastRecentlyUsedIsEvicted(t *testing.T) {
	c := New[string, int](2)
	var runs atomic.Int64
	do := func(k string) Outcome {
		_, out, err := c.Do(context.Background(), k, value(&runs, 0))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	do("a")
	do("b")
	if do("a") != Hit { // a is now the most recently used
		t.Fatal("a not resident")
	}
	do("c") // evicts b
	if do("a") != Hit || do("c") != Hit {
		t.Fatal("a or c evicted instead of b")
	}
	if do("b") != Miss {
		t.Fatal("b still resident")
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 2 || st.Capacity != 2 || st.Misses != 4 || st.Hits != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// An in-flight entry may be evicted: its waiters still get the result,
// and only later callers recompute.
func TestInFlightEntryMayBeEvicted(t *testing.T) {
	c := New[string, int](1)
	release := make(chan struct{})
	ownerDone := inFlight(t, c, context.Background(), "a", 9, release)
	waiter := make(chan int, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "a", value(new(atomic.Int64), 0))
		if err != nil {
			t.Error(err)
		}
		waiter <- v
	}()
	waitForHits(t, c, 1)
	var runs atomic.Int64
	if _, out, _ := c.Do(context.Background(), "b", value(&runs, 2)); out != Miss {
		t.Fatal("b: want miss")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v: in-flight a not evicted", st)
	}
	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatal(err)
	}
	if v := <-waiter; v != 9 {
		t.Fatalf("waiter of evicted flight got %d, want 9", v)
	}
	if v, out, _ := c.Do(context.Background(), "a", value(&runs, 10)); out != Miss || v != 10 {
		t.Fatalf("a after eviction: %d, %v; want a recomputation", v, out)
	}
}

func TestNewClampsCapacity(t *testing.T) {
	if got := New[string, int](0).Stats().Capacity; got != 1 {
		t.Fatalf("capacity %d, want 1", got)
	}
}

func TestOutcomeNames(t *testing.T) {
	for o, want := range map[Outcome]string{Hit: "hit", Wait: "wait", Miss: "miss"} {
		if o.String() != want {
			t.Errorf("%d: %q, want %q", o, o.String(), want)
		}
	}
}
