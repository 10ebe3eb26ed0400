package measure

import (
	"cmp"
	"context"
	"slices"
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
// call with its own cache key and store entry. A request that knows its
// configurations plans them on the scope (Plan), so that one of its
// workers walks the dcache classes behind the recording instead of
// waiting for it. The scope dies with the request's context, so no trace
// outlives the request that paid for it.

type traceScopeKey struct{}

// traceScope holds the recordings of one request and the configurations
// the request plans to measure.
type traceScope struct {
	mu      sync.Mutex
	entries map[traceKey]*scopedTrace
	plans   map[traceKey][]config.Config
	records map[recordKey]*planRecord // the stores' set records (record.go)
}

// traceKey is what a recording is valid for: a program under one set of
// normalized run options (Key without the configuration).
type traceKey struct {
	prog                   *asm.Program
	ram                    int
	maxI, sample, interval uint64
}

func traceKeyOf(prog *asm.Program, opts platform.Options) traceKey {
	opts = opts.Normalized()
	return traceKey{prog: prog, ram: opts.RAMBytes, maxI: opts.MaxInstructions,
		sample: opts.SampleInstructions, interval: opts.IntervalInstructions}
}

// scopedTrace is one (program, options) recording, made on base. ready
// closes once tr is set, or when the recording failed before it started;
// done closes when it finished, ok saying whether it succeeded.
type scopedTrace struct {
	base        config.Config
	plan        []config.Config // the planned configurations, base first
	ready, done chan struct{}
	tr          *platform.Trace
	ok          bool
	// Under traceScope.mu: followed is set once a caller follows the
	// recording; rep is the recording's report, kept for the base's own
	// caller when another caller recorded.
	followed bool
	rep      *platform.RunReport
}

// WithTraceScope returns ctx carrying a fresh trace scope, or ctx itself
// when it already carries one.
func WithTraceScope(ctx context.Context) context.Context {
	if _, ok := ctx.Value(traceScopeKey{}).(*traceScope); ok {
		return ctx
	}
	return context.WithValue(ctx, traceScopeKey{}, &traceScope{})
}

// Plan declares on ctx's trace scope the configurations the request will
// measure prog on under opts, the base first. The scope then records
// (prog, opts) on the base, whichever configuration reaches the simulator
// first, and the first caller to find that recording running follows it:
// it walks the planned configurations' dcache classes behind the
// recording (platform.Trace.Follow) before it answers its own. Without a
// scope, or once (prog, opts) has a recording, Plan does nothing.
func Plan(ctx context.Context, prog *asm.Program, opts platform.Options, cfgs []config.Config) {
	s, ok := ctx.Value(traceScopeKey{}).(*traceScope)
	if !ok || len(cfgs) == 0 || opts.TraceWriter != nil {
		return
	}
	key := traceKeyOf(prog, opts)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, recorded := s.entries[key]; recorded {
		return
	}
	if s.plans == nil {
		s.plans = make(map[traceKey][]config.Config)
	}
	s.plans[key] = slices.Clone(cfgs)
}

// Recording returns the recording ctx's trace scope made of prog under
// opts, once it has finished, when it made one and it succeeded. A
// request times further runs of the program from it, such as the phase
// replays (platform.Trace.ReplaySchedule).
func Recording(ctx context.Context, prog *asm.Program, opts platform.Options) (*platform.Trace, bool) {
	s, ok := ctx.Value(traceScopeKey{}).(*traceScope)
	if !ok || opts.TraceWriter != nil {
		return nil, false
	}
	s.mu.Lock()
	e := s.entries[traceKeyOf(prog, opts)]
	s.mu.Unlock()
	if e == nil {
		return nil, false
	}
	select {
	case <-e.done:
		return e.tr, e.ok
	default:
		return nil, false
	}
}

// measure answers one run from the scope. The first caller of a
// (program, options) records it, on the planned base if there is a plan
// and on its own configuration otherwise, and returns the recording run's
// report when it asked for that configuration. Every other configuration
// waits for the recording and is timed from it; one caller of a planned
// recording walks behind it while it runs instead of waiting. A
// configuration the trace declines, or any configuration after a failed
// recording, runs in full, so every error is RunWith's own.
//
// How the run was answered goes onto the caller's measure span as its
// "sim" attribute: record, follow (this caller walked behind the
// recording; sim_followed says how many walks), walk (timed by a walk of
// the trace), shared (timed from a walk already made, or from the
// recording itself) or full. Any other caller that waited for the
// recording also gets sim_wait_ns, so that a traced build splits into
// recording and walking time. Only a measure span is annotated: a span is
// its owner's alone, and callers without one of their own may share a
// parent.
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
	key := traceKeyOf(prog, opts)
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		e = &scopedTrace{base: cfg, ready: make(chan struct{}), done: make(chan struct{})}
		if plan := s.plans[key]; len(plan) > 0 && plan[0].Validate() == nil {
			e.base, e.plan = plan[0], plan
		}
		if s.entries == nil {
			s.entries = make(map[traceKey]*scopedTrace)
		}
		s.entries[key] = e
		s.mu.Unlock()
		span.Set(obs.String("sim", "record"))
		_, rep, err := platform.Record(prog, e.base, opts, func(tr *platform.Trace) {
			e.tr = tr
			close(e.ready)
		})
		if e.tr == nil {
			close(e.ready)
		}
		e.ok = err == nil
		if e.ok && !e.isBase(cfg) {
			// Before done: the base's caller looks for it once done closes.
			s.mu.Lock()
			e.rep = rep
			s.mu.Unlock()
		}
		close(e.done)
		if e.isBase(cfg) {
			if rep != nil {
				rep = copyReport(rep, cfg)
			}
			return rep, err
		}
		return e.answer(nil, prog, cfg, opts, "") // the span keeps "record"
	}
	s.mu.Unlock()
	var t0 time.Time
	if span != nil {
		t0 = time.Now()
	}
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mu.Lock()
	follow := e.plan != nil && e.tr != nil && !e.followed
	e.followed = e.followed || follow
	s.mu.Unlock()
	walks := 0
	if follow {
		walks = e.tr.Follow(ctx, e.plan)
	}
	select {
	case <-e.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	sim := ""
	if walks > 0 {
		sim = "follow"
		span.Set(obs.Int("sim_followed", int64(walks)))
	} else if span != nil {
		span.Set(obs.Int("sim_wait_ns", time.Since(t0).Nanoseconds()))
	}
	if e.isBase(cfg) && e.ok {
		s.mu.Lock()
		rep := e.rep
		e.rep = nil
		s.mu.Unlock()
		if rep != nil {
			span.Set(obs.String("sim", cmp.Or(sim, "shared")))
			return copyReport(rep, cfg), nil
		}
	}
	return e.answer(span, prog, cfg, opts, sim)
}

// isBase reports whether cfg runs exactly as the recording's base does:
// configurations with equal timing keys simulate identically (Key), so the
// recording's report answers them with cfg stamped in. Whichever of them
// reaches the leaf first, through the cache's singleflight, gets it.
func (e *scopedTrace) isBase(cfg config.Config) bool {
	return cfg.TimingKey() == e.base.TimingKey()
}

// answer times cfg from the finished recording, or runs it in full when
// the recording failed or the trace declines cfg. sim, when set, is the
// span's "sim" attribute for a timed answer.
func (e *scopedTrace) answer(span *obs.Span, prog *asm.Program, cfg config.Config, opts platform.Options, sim string) (*platform.RunReport, error) {
	if e.ok {
		if rep, shared, ok := e.tr.Time(cfg); ok {
			switch {
			case sim != "":
			case shared:
				sim = "shared"
			default:
				sim = "walk"
			}
			span.Set(obs.String("sim", sim))
			return rep, nil
		}
	}
	span.Set(obs.String("sim", "full"))
	return platform.RunWith(prog, cfg, opts)
}
