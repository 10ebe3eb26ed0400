// Package obs is the observability layer of the tuning stack: a
// lightweight span/trace API threaded through the whole pipeline
// (session tune → model build vs. artifact load → per-config
// measurement → BINLP solve → phase detection → schedule replay), plus
// bounded per-stage latency aggregation for the daemon's /v1/metrics.
//
// The design contract is that tracing is free when it is off. A span is
// started from a context (obs.Start); when no Tracer was installed on
// the context, Start returns the context unchanged and a nil *Span,
// and every *Span method is a nil-receiver no-op — zero allocations,
// no locks, no time reads (BenchmarkTracerDisabled asserts 0
// allocs/op, and DESIGN.md §20 states the overhead budget). When a
// Tracer is installed (obs.WithTracer), Start opens a child of the
// context's current span, carrying typed attributes (config hash,
// cache outcome, instruction count), and End records the completed
// span into the tracer's bounded buffer, feeds the optional Stages
// aggregator, and broadcasts to live subscribers.
//
// Consumers:
//
//   - core.Session.Tune opens the "tune" root and the model / solve /
//     validate / phase.detect / replay / online stage spans.
//   - measure.Cache opens one "measure" span per configuration with
//     the cache outcome attributed (hit, wait, miss); measure.Persistent
//     annotates the store and lease outcomes onto it.
//   - internal/serve traces every daemon job, serves the completed
//     span tree at GET /v1/trace/{jobID} (with an ndjson live-stream
//     variant) and merges per-stage histograms into /v1/metrics.
//   - autoarch -trace prints the human-readable stage breakdown.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// AttrKind says which field of an Attr carries the value.
type AttrKind string

// Attribute kinds.
const (
	KindString AttrKind = "str"
	KindInt    AttrKind = "int"
	KindBool   AttrKind = "bool"
)

// Attr is one typed span attribute. Exactly one of Str/Int is
// meaningful, selected by Kind (bools ride in Int as 0/1).
type Attr struct {
	Key  string   `json:"key"`
	Kind AttrKind `json:"kind"`
	Str  string   `json:"str,omitempty"`
	Int  int64    `json:"int,omitempty"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Kind: KindString, Str: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Kind: KindInt, Int: value} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	a := Attr{Key: key, Kind: KindBool}
	if value {
		a.Int = 1
	}
	return a
}

// Value renders the attribute's value for human-readable output.
func (a Attr) Value() string {
	switch a.Kind {
	case KindString:
		return a.Str
	case KindBool:
		if a.Int != 0 {
			return "true"
		}
		return "false"
	default:
		return itoa(a.Int)
	}
}

// itoa is strconv.FormatInt(v, 10) without pulling strconv into the
// package's hot-path imports (it is only called on render paths).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// SpanRecord is one completed span as recorded by its tracer (and as
// serialized by the daemon's trace endpoint). Parent 0 marks a root.
type SpanRecord struct {
	ID         uint64    `json:"id"`
	Parent     uint64    `json:"parent,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// Duration returns the span's duration.
func (r SpanRecord) Duration() time.Duration { return time.Duration(r.DurationNs) }

// Attr returns the value of the named attribute and whether it is set.
func (r SpanRecord) Attr(key string) (Attr, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Span is one live pipeline stage. Spans are produced by Start and
// closed by End; a nil *Span (tracing disabled) no-ops on every method.
// A span is owned by the goroutine that started it: Set and End must
// not race each other. Layers below the owner (the measurement stack
// annotating a cache outcome) run synchronously inside the owner's
// call, so the single-owner rule holds through the whole pipeline.
type Span struct {
	tracer *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
	ended  bool
}

// Set records attributes on the span, replacing any earlier attribute
// with the same key (a retried measurement overwrites its outcome
// rather than duplicating it). No-op on a nil span.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
next:
	for _, a := range attrs {
		for i := range s.attrs {
			if s.attrs[i].Key == a.Key {
				s.attrs[i] = a
				continue next
			}
		}
		s.attrs = append(s.attrs, a)
	}
}

// Enabled reports whether the span is live (tracing enabled).
func (s *Span) Enabled() bool { return s != nil }

// Name returns the span's name, "" for a nil span.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// End closes the span and records it. No-op on a nil span; a second
// End is ignored, so `defer span.End()` composes with an explicit End
// on the happy path.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.tracer.record(SpanRecord{
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.name,
		Start:      s.start,
		DurationNs: time.Since(s.start).Nanoseconds(),
		Attrs:      s.attrs,
	})
}

type spanKey struct{}
type tracerKey struct{}

// WithTracer installs a tracer on the context: spans started from the
// returned context (and its descendants) record into t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer (from WithTracer or an
// enclosing span), or nil when tracing is disabled.
func TracerFrom(ctx context.Context) *Tracer {
	if s, ok := ctx.Value(spanKey{}).(*Span); ok {
		return s.tracer
	}
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// Current returns the context's innermost live span, or nil. Lower
// layers use it to annotate the stage that called them (the persistent
// store stamping its outcome onto the measurement span) without
// threading span handles through every signature.
func Current(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Start opens a span named name: a child of the context's current span
// when one is live, a root span when only a tracer is installed, and a
// no-op (the context unchanged, a nil span) when tracing is disabled —
// the disabled path performs zero allocations.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		s := parent.tracer.newSpan(name, parent.id)
		if s == nil {
			return ctx, nil
		}
		return context.WithValue(ctx, spanKey{}, s), s
	}
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	s := t.newSpan(name, 0)
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// DefaultMaxSpans bounds a tracer's completed-span buffer when
// TracerOptions does not say otherwise. A tuning job emits a few spans
// per measured configuration plus a handful of stage spans — well
// under a thousand — so the default never truncates a normal job while
// still bounding a pathological one.
const DefaultMaxSpans = 4096

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Stages, when set, receives every completed span's (name, duration)
	// observation — the per-stage histogram aggregation behind
	// /v1/metrics.
	Stages *Stages
	// MaxSpans bounds the completed-span buffer (<= 0 means
	// DefaultMaxSpans). Spans beyond the bound are counted as dropped,
	// not stored.
	MaxSpans int
}

// Tracer collects the spans of one trace — one CLI tune, one daemon
// job. It is safe for concurrent use (parallel measurement goroutines
// end spans concurrently); the completed-span buffer is bounded; live
// subscribers receive every completed span as it ends.
type Tracer struct {
	stages *Stages
	limit  int

	finished atomic.Bool

	mu      sync.Mutex
	nextID  uint64
	started time.Time
	spans   []SpanRecord
	dropped uint64
	subs    map[uint64]chan SpanRecord
	subSeq  uint64
}

// NewTracer builds a tracer.
func NewTracer(opts TracerOptions) *Tracer {
	limit := opts.MaxSpans
	if limit <= 0 {
		limit = DefaultMaxSpans
	}
	return &Tracer{
		stages:  opts.Stages,
		limit:   limit,
		started: time.Now(),
		subs:    make(map[uint64]chan SpanRecord),
	}
}

// newSpan allocates a live span. A nil tracer (or a finished one)
// returns nil — the disabled no-op span.
func (t *Tracer) newSpan(name string, parent uint64) *Span {
	if t == nil || t.finished.Load() {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Span{tracer: t, id: id, parent: parent, name: name, start: time.Now()}
}

// record stores one completed span, feeds the stage aggregator, and
// broadcasts to subscribers (non-blocking: a slow subscriber misses
// spans rather than stalling the pipeline).
func (t *Tracer) record(rec SpanRecord) {
	if t.stages != nil {
		t.stages.Observe(rec.Name, time.Duration(rec.DurationNs))
	}
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, rec)
	} else {
		t.dropped++
	}
	for _, ch := range t.subs {
		select {
		case ch <- rec:
		default:
		}
	}
	t.mu.Unlock()
}

// Finish marks the trace complete: new spans are refused (Start
// returns nil) and every live subscriber's channel is closed. Idempotent.
func (t *Tracer) Finish() {
	if t == nil || !t.finished.CompareAndSwap(false, true) {
		return
	}
	t.mu.Lock()
	for id, ch := range t.subs {
		close(ch)
		delete(t.subs, id)
	}
	t.mu.Unlock()
}

// Finished reports whether Finish has been called.
func (t *Tracer) Finished() bool { return t != nil && t.finished.Load() }

// Snapshot returns a copy of the trace so far (complete once Finish
// has run).
func (t *Tracer) Snapshot() *Trace {
	t.mu.Lock()
	spans := append([]SpanRecord(nil), t.spans...)
	dropped := t.dropped
	started := t.started
	t.mu.Unlock()
	return &Trace{Started: started, Complete: t.finished.Load(), Dropped: dropped, Spans: spans}
}

// Subscribe returns a channel that first replays every span already
// completed, then delivers each new span as it ends; the channel is
// closed when the trace finishes. The replay and the registration
// happen atomically, so no span is missed between them. cancel
// unregisters (idempotent, safe after close).
func (t *Tracer) Subscribe(buffer int) (<-chan SpanRecord, func()) {
	if buffer < 16 {
		buffer = 16
	}
	t.mu.Lock()
	ch := make(chan SpanRecord, len(t.spans)+buffer)
	for _, rec := range t.spans {
		ch <- rec
	}
	if t.finished.Load() {
		close(ch)
		t.mu.Unlock()
		return ch, func() {}
	}
	t.subSeq++
	id := t.subSeq
	t.subs[id] = ch
	t.mu.Unlock()
	return ch, func() {
		t.mu.Lock()
		if c, ok := t.subs[id]; ok {
			delete(t.subs, id)
			close(c)
		}
		t.mu.Unlock()
	}
}
