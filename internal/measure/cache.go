package measure

import (
	"context"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/memo"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
)

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats struct {
	// Hits counts lookups satisfied by a resident (or in-flight) entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to consult the inner provider.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped to stay within the capacity.
	Evictions uint64 `json:"evictions"`
	// Entries is the current resident entry count, Capacity the bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// Cache is a bounded, singleflighted LRU (internal/memo) over any
// Provider. The first caller of a given key measures through the inner
// provider; concurrent callers of the same key wait for that one
// computation; later callers get a copy of the resident report. When
// the entry count exceeds the capacity, the least recently used entries
// are evicted, so a long-lived server's memory stays bounded no matter
// how many (program, configuration) pairs pass through.
//
// Failed measurements are not cached: an error is propagated to every
// waiter of that flight and the key is removed, so the next caller
// retries cleanly. A waiter whose flight owner was cancelled retries
// with its own live context: two jobs sharing a measurement must not
// fail together when only one of them is cancelled.
type Cache struct {
	inner Provider
	memo  *memo.Cache[Key, *platform.RunReport]
}

// NewCache wraps inner with a bounded LRU of at most capacity entries.
// capacity <= 0 falls back to DefaultCacheEntries.
func NewCache(inner Provider, capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{inner: inner, memo: memo.New[Key, *platform.RunReport](capacity)}
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *Cache) Stats() CacheStats {
	st := c.memo.Stats()
	return CacheStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Capacity:  st.Capacity,
	}
}

// Measure implements Provider. Traced runs bypass the cache entirely —
// their purpose is the side effect, and their reports are not reusable.
func (c *Cache) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	if opts.TraceWriter != nil {
		return c.inner.Measure(ctx, prog, cfg, opts)
	}
	// One observability span per measurement, with the cache outcome
	// attributed (hit: answered by a resident entry; wait: joined another
	// caller's in-flight measurement; miss: this caller measured) and the
	// store layers below annotating theirs. When tracing is disabled span
	// is nil and every call on it is a zero-cost no-op.
	sctx, span := obs.Start(ctx, "measure")
	if span != nil {
		ctx = sctx
		span.Set(obs.String("config", ConfigHash(cfg)))
		defer span.End()
	}
	rep, out, err := c.memo.Do(ctx, KeyFor(prog, cfg, opts), func() (*platform.RunReport, error) {
		// Attributed before the inner layers annotate the span.
		span.Set(obs.String("outcome", "miss"))
		return c.inner.Measure(ctx, prog, cfg, opts)
	})
	if span != nil {
		if out != memo.Miss {
			span.Set(obs.String("outcome", out.String()))
		}
		if err == nil {
			span.Set(
				obs.Int("instructions", int64(rep.Stats.Instructions)),
				obs.Int("cycles", int64(rep.Stats.Cycles)))
		} else {
			span.Set(obs.Bool("error", true))
		}
	}
	if err != nil {
		return nil, err
	}
	return copyReport(rep, cfg), nil
}

// copyReport hands out a private copy with the caller's configuration
// stamped in (the cached run's config is the timing key's representative,
// not necessarily the caller's exact configuration).
func copyReport(rep *platform.RunReport, cfg config.Config) *platform.RunReport {
	out := *rep
	out.Config = cfg
	return &out
}
