package measure

import (
	"context"
	"sync"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
)

// Trace scopes (DESIGN.md §22). A request that measures one program on
// many configurations — a model build, its validation, an exhaustive
// sweep — installs a scope on its context. Inside it the leaf Simulator
// executes each (program, options) once, recording the run, and derives
// every other configuration's report from that recording. Everything
// above the leaf is unchanged: each configuration is still one Measure
// call with its own cache key and store entry. The scope dies with the
// request's context, so no trace outlives the request that paid for it.

type traceScopeKey struct{}

// traceScope holds the recordings of one request.
type traceScope struct {
	mu      sync.Mutex
	entries map[traceKey]*scopedTrace
}

// traceKey is what a recording is valid for: a program under one set of
// normalized run options (Key without the configuration).
type traceKey struct {
	prog                   *asm.Program
	ram                    int
	maxI, sample, interval uint64
}

// scopedTrace is one (program, options) recording. done closes when the
// recording finishes; tr is nil when it failed.
type scopedTrace struct {
	done chan struct{}
	tr   *platform.Trace
}

// WithTraceScope returns ctx carrying a fresh trace scope, or ctx itself
// when it already carries one.
func WithTraceScope(ctx context.Context) context.Context {
	if _, ok := ctx.Value(traceScopeKey{}).(*traceScope); ok {
		return ctx
	}
	return context.WithValue(ctx, traceScopeKey{}, &traceScope{})
}

// measure answers one run from the scope. The first caller of a
// (program, options) records on its configuration and returns the
// recording run's report; later and concurrent callers wait for that
// recording and time their configuration from it. A configuration the
// trace declines, or any configuration after a failed recording, runs
// in full, so every error is RunWith's own.
//
// How the run was answered goes onto the caller's measure span as its
// "sim" attribute: record, walk (timed by a walk of the trace), shared
// (timed from a walk already made, or from the recording itself) or full.
// A caller that waited for another's recording also gets sim_wait_ns, so
// that a traced build splits into recording and walking time. Only a
// measure span is annotated: a span is its owner's alone, and callers
// without one of their own may share a parent.
func (s *traceScope) measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	span := obs.Current(ctx)
	if span.Name() != "measure" {
		span = nil
	}
	if cfg.Validate() != nil {
		span.Set(obs.String("sim", "full"))
		return platform.RunWith(prog, cfg, opts) // reports the invalid configuration
	}
	opts = opts.Normalized()
	key := traceKey{prog: prog, ram: opts.RAMBytes, maxI: opts.MaxInstructions,
		sample: opts.SampleInstructions, interval: opts.IntervalInstructions}
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		if s.entries == nil {
			s.entries = make(map[traceKey]*scopedTrace)
		}
		e = &scopedTrace{done: make(chan struct{})}
		s.entries[key] = e
		s.mu.Unlock()
		span.Set(obs.String("sim", "record"))
		tr, rep, err := platform.Record(prog, cfg, opts)
		e.tr = tr
		close(e.done)
		return rep, err
	}
	s.mu.Unlock()
	var t0 time.Time
	if span != nil {
		t0 = time.Now()
	}
	select {
	case <-e.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if span != nil {
		span.Set(obs.Int("sim_wait_ns", time.Since(t0).Nanoseconds()))
	}
	if e.tr != nil {
		if rep, shared, ok := e.tr.Time(cfg); ok {
			if shared {
				span.Set(obs.String("sim", "shared"))
			} else {
				span.Set(obs.String("sim", "walk"))
			}
			return rep, nil
		}
	}
	span.Set(obs.String("sim", "full"))
	return platform.RunWith(prog, cfg, opts)
}
