package main

import (
	"context"
	"sync/atomic"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
)

// stack is the measurement-provider stack a tuning daemon started with
// -cache-dir composes, Cache(Persistent(Simulator)), with the benchmark's
// timers at the two layer boundaries below the cache: storeTier around
// the store and leaf around the simulator.
type stack struct {
	leaf  *leaf
	store *storeTier
	cache *measure.Cache
}

func newStack(st *measure.Store) *stack {
	l := &leaf{}
	t := &storeTier{inner: measure.NewPersistent(l, st)}
	return &stack{leaf: l, store: t, cache: measure.NewCache(t, 0)}
}

// counters reads the stack's cumulative layer counters.
func (s *stack) counters() stackCounters {
	cs := s.cache.Stats()
	return stackCounters{
		simRuns:     s.leaf.runs.Load(),
		simInstr:    s.leaf.instr.Load(),
		simBusy:     time.Duration(s.leaf.busyNs.Load()),
		loads:       s.store.loads.Load(),
		loadTime:    time.Duration(s.store.loadNs.Load()),
		saves:       s.store.saves.Load(),
		saveTime:    time.Duration(s.store.saveNs.Load()),
		cacheHits:   int64(cs.Hits),
		cacheMisses: int64(cs.Misses),
	}
}

// stackCounters are the provider layers' work counts and busy times.
type stackCounters struct {
	simRuns, simInstr int64
	simBusy           time.Duration
	loads, saves      int64
	loadTime          time.Duration
	saveTime          time.Duration
	cacheHits         int64
	cacheMisses       int64
}

func (c stackCounters) plus(o stackCounters, sign int64) stackCounters {
	return stackCounters{
		simRuns:     c.simRuns + sign*o.simRuns,
		simInstr:    c.simInstr + sign*o.simInstr,
		simBusy:     c.simBusy + time.Duration(sign)*o.simBusy,
		loads:       c.loads + sign*o.loads,
		saves:       c.saves + sign*o.saves,
		loadTime:    c.loadTime + time.Duration(sign)*o.loadTime,
		saveTime:    c.saveTime + time.Duration(sign)*o.saveTime,
		cacheHits:   c.cacheHits + sign*o.cacheHits,
		cacheMisses: c.cacheMisses + sign*o.cacheMisses,
	}
}

// leafRun is how a simulation tells the storeTier call above it that it
// ran, and for how long.
type leafRun struct {
	ran bool
	d   time.Duration
}

type leafRunKey struct{}

// leaf is the simulator at the bottom of the stack. It counts the runs
// that reach the platform, their simulated instructions and their busy
// time, and opens a "sim" span when the request is traced.
type leaf struct {
	runs, instr, busyNs atomic.Int64
}

func (l *leaf) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	_, span := obs.Start(ctx, "sim")
	t0 := time.Now()
	rep, err := measure.Simulator{}.Measure(ctx, prog, cfg, opts)
	d := time.Since(t0)
	span.End()
	l.runs.Add(1)
	l.busyNs.Add(d.Nanoseconds())
	if err == nil {
		l.instr.Add(int64(rep.Stats.Instructions))
	}
	if note, ok := ctx.Value(leafRunKey{}).(*leafRun); ok {
		note.ran, note.d = true, d
	}
	return rep, err
}

// storeTier times the persistent store layer. A call that never reached
// the leaf was answered by a store load; on a miss, the time beyond the
// leaf's is the failed lookup plus the save.
type storeTier struct {
	inner                        *measure.Persistent
	loads, loadNs, saves, saveNs atomic.Int64
}

func (s *storeTier) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	note := &leafRun{}
	t0 := time.Now()
	rep, err := s.inner.Measure(context.WithValue(ctx, leafRunKey{}, note), prog, cfg, opts)
	d := time.Since(t0)
	if err != nil {
		return rep, err
	}
	if note.ran {
		s.saves.Add(1)
		s.saveNs.Add((d - note.d).Nanoseconds())
	} else {
		s.loads.Add(1)
		s.loadNs.Add(d.Nanoseconds())
	}
	return rep, nil
}
