// Package memo is the bounded, singleflighted LRU both memo layers of
// the tuning stack run on: measure.Cache keys it by measurement
// (program, timing configuration, run options) and core.Session's model
// layer by model build (program, space, scale, sample, phase options).
//
// Cache.Do returns the value for a key, computing it at most once at a
// time: the first caller of a key runs the computation, concurrent
// callers of the same key wait for that one flight, and later callers
// get the resident value. When the entry count exceeds the capacity the
// least recently used entries are evicted, in-flight ones included —
// their waiters hold the entry directly and still get the result; only
// later callers recompute.
//
// Failures are not memoized: an error is handed to every waiter of that
// flight and the key is dropped, so the next caller retries. A waiter
// whose flight failed with a context error (the owner was cancelled or
// timed out) retries on its own context instead of inheriting the
// owner's error, so two jobs sharing a computation do not fail together
// when only one of them is cancelled.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Outcome says how Do answered a call.
type Outcome uint8

const (
	// Miss: this caller ran the computation.
	Miss Outcome = iota
	// Hit: a resident, completed entry answered.
	Hit
	// Wait: the caller joined another caller's in-flight computation.
	Wait
)

// String returns "miss", "hit" or "wait", the names the measurement
// span's outcome attribute carries.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Wait:
		return "wait"
	}
	return "miss"
}

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	// Hits counts lookups answered by a resident or in-flight entry,
	// Misses the lookups that ran the computation.
	Hits   uint64
	Misses uint64
	// Evictions counts entries dropped to stay within the capacity.
	Evictions uint64
	// Entries is the current resident entry count, Capacity the bound.
	Entries  int
	Capacity int
}

// entry is one memoized computation. done is closed when it finishes;
// until then same-key callers wait on it.
type entry[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
}

// Cache is a bounded, singleflighted LRU from K to V. It is safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	ll      list.List           // front = most recently used; values *entry[K, V]
	entries map[K]*list.Element // by key
	hits    uint64
	misses  uint64
	evicted uint64
}

// New returns a cache of at most capacity entries (at least one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: max(capacity, 1), entries: make(map[K]*list.Element)}
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
		Entries:   c.ll.Len(),
		Capacity:  c.cap,
	}
}

// Do returns the value for key, running fn on a miss. The outcome is
// that of the round that answered: a caller that retried after a
// cancelled owner reports the retry's outcome. ctx bounds only the wait
// for another caller's flight; fn is expected to watch the caller's
// context itself.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, Outcome, error) {
	for {
		v, out, err, retry := c.do(ctx, key, fn)
		if retry && ctx.Err() == nil {
			continue
		}
		return v, out, err
	}
}

// do performs one lookup-or-compute round. retry is true when the caller
// waited on another caller's flight that failed with a context error.
func (c *Cache[K, V]) do(ctx context.Context, key K, fn func() (V, error)) (v V, out Outcome, err error, retry bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		ent := el.Value.(*entry[K, V])
		c.mu.Unlock()
		out = Wait
		select {
		case <-ent.done:
			out = Hit
		default:
			select {
			case <-ent.done:
			case <-ctx.Done():
				return v, out, ctx.Err(), false
			}
		}
		if ent.err != nil {
			retry = errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded)
			return v, out, ent.err, retry
		}
		return ent.val, out, nil, false
	}
	c.misses++
	ent := &entry[K, V]{key: key, done: make(chan struct{})}
	c.entries[key] = c.ll.PushFront(ent)
	for c.ll.Len() > c.cap {
		delete(c.entries, c.ll.Remove(c.ll.Back()).(*entry[K, V]).key)
		c.evicted++
	}
	c.mu.Unlock()

	ent.val, ent.err = fn()
	if ent.err != nil {
		// Do not memoize failures: drop the key so the next caller
		// retries (the entry may already have been evicted).
		c.mu.Lock()
		if el, ok := c.entries[key]; ok && el.Value.(*entry[K, V]) == ent {
			c.ll.Remove(el)
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	close(ent.done)
	return ent.val, Miss, ent.err, false
}
