// Package measure is the measurement-provider layer: the one service
// interface every consumer of simulated runs — the model builder, the
// exhaustive sweeps, the figure harnesses, the autoarchd daemon — obtains
// its (program, configuration) measurements through.
//
// The layer is a stack of providers:
//
//	Simulator            – executes the run on the platform (the leaf)
//	Persistent           – spills/loads reports via a versioned on-disk store
//	Cache                – bounded LRU with singleflight and eviction stats
//
// A caller composes the stack it needs; Default() is the process-wide
// stack (Cache over Simulator) that the library consumers share, so the
// ~52 single-change jobs of a model build, repeated sweeps and validation
// all reuse identical (program, timing-configuration) runs, exactly as
// the unbounded cache of DESIGN.md §10 did — but bounded, observable and
// cancellable.
//
// The on-disk Store is built for fleets as well as single processes
// (DESIGN.md §14): atomic writes, read-repair of corrupt entries, a
// store-version manifest handshake, and an LRU-by-mtime GC (GCPolicy)
// that bounds the spill by bytes and age, so several autoarchd replicas
// can safely share one directory.
package measure

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/platform"
)

// Provider is the measurement service: execute (or recall) one run of
// prog on cfg and return its report. Implementations must be safe for
// concurrent use and must honour ctx cancellation at least between runs.
type Provider interface {
	Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error)
}

// Simulator is the leaf provider: it runs the program on the simulated
// platform directly, drawing engines from the platform's pool. Under a
// trace scope (WithTraceScope) it records each (program, options) once
// and times the other configurations from the recording.
type Simulator struct{}

// Measure executes the run. The context is checked up front — a single
// run at the harness scales is short, so per-run granularity is what
// makes long sweeps promptly cancellable.
func (Simulator) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s, ok := ctx.Value(traceScopeKey{}).(*traceScope); ok && opts.TraceWriter == nil {
		return s.measure(ctx, prog, cfg, opts)
	}
	return platform.RunWith(prog, cfg, opts)
}

// Key is the measurement identity: program, timing-relevant configuration
// and the run options that can change the outcome. Two measurements with
// equal keys produce bit-identical reports (the simulator is
// deterministic), which is what licenses both caching layers.
//
// Program identity is the *asm.Program pointer: progs.Benchmark memoizes
// Assemble per (benchmark, scale), so one pointer is one (application,
// workload scale). The configuration is reduced to its TimingKey — the
// parameters that cannot change simulated timing (dcache fast read/write,
// InferMultDiv) are normalised away, so e.g. the base run is shared with
// the fastread-only perturbation.
type Key struct {
	Prog     *asm.Program
	Cfg      config.Config
	RAM      int
	MaxI     uint64
	Sample   uint64
	Interval uint64
}

// KeyFor derives the cache key for a run request. opts must describe a
// cacheable run (no trace writer).
func KeyFor(prog *asm.Program, cfg config.Config, opts platform.Options) Key {
	opts = opts.Normalized()
	return Key{
		Prog:     prog,
		Cfg:      cfg.TimingKey(),
		RAM:      opts.RAMBytes,
		MaxI:     opts.MaxInstructions,
		Sample:   opts.SampleInstructions,
		Interval: opts.IntervalInstructions,
	}
}

// Program-image fingerprints, memoized per pointer: package progs hands
// out one *asm.Program per (benchmark, scale), so each image is hashed
// once per process no matter how many stores, sessions or model caches
// ask for its identity.
var (
	fpMu sync.Mutex
	fps  = map[*asm.Program]string{}
)

// Fingerprint returns the stable identity of an assembled program: the
// hex SHA-256 over its load images and entry point. It is the program
// half of every durable measurement identity — the on-disk Store's entry
// names and the core session's model-cache keys both derive from it —
// so, unlike the pointer-based in-memory Key, it survives process
// restarts and is comparable across replicas.
func Fingerprint(p *asm.Program) string {
	fpMu.Lock()
	fp, ok := fps[p]
	fpMu.Unlock()
	if ok {
		return fp
	}

	h := sha256.New()
	var word [4]byte
	binary.BigEndian.PutUint32(word[:], p.TextBase)
	h.Write(word[:])
	for _, w := range p.Text {
		binary.BigEndian.PutUint32(word[:], w)
		h.Write(word[:])
	}
	binary.BigEndian.PutUint32(word[:], p.DataBase)
	h.Write(word[:])
	h.Write(p.Data)
	binary.BigEndian.PutUint32(word[:], p.Entry)
	h.Write(word[:])
	fp = hex.EncodeToString(h.Sum(nil))

	fpMu.Lock()
	fps[p] = fp
	fpMu.Unlock()
	return fp
}

// Short config-hash attributes, memoized per timing key: the span of
// every measurement of one configuration carries the same identity, and
// a traced 52-config sweep hashes each timing key once.
var (
	chMu sync.Mutex
	chs  = map[config.Config]string{}
)

// ConfigHash returns a short stable identity of the configuration's
// timing key — the "config" attribute on measurement spans. Two
// configurations that simulate identically (equal TimingKeys) share one
// hash, mirroring the cache identity the span's outcome is attributed
// against.
func ConfigHash(cfg config.Config) string {
	key := cfg.TimingKey()
	chMu.Lock()
	h, ok := chs[key]
	chMu.Unlock()
	if ok {
		return h
	}
	sum := sha256.Sum256([]byte(key.String()))
	h = hex.EncodeToString(sum[:6])
	chMu.Lock()
	chs[key] = h
	chMu.Unlock()
	return h
}

// DefaultCacheEntries bounds the shared Default() cache. The full-space
// model builds, every figure and the Section 5 sweeps together touch a
// few hundred distinct keys per workload scale, so the default keeps a
// whole experiment suite resident while still bounding a long-lived
// server.
const DefaultCacheEntries = 4096

var defaultProvider = NewCache(Simulator{}, DefaultCacheEntries)

// Default returns the process-wide shared provider: a bounded cache over
// the simulator. Library consumers (core.Session, exhaustive.Sweep) fall
// back to it when no explicit provider is configured.
func Default() *Cache { return defaultProvider }

// Observed wraps a provider with a completion hook: OnMeasure fires
// after every successful Measure, whether it was simulated, loaded from
// disk or answered by a cache layer below. It is the progress surface
// the core session's Observer is built on — "k of N measurements done"
// without the measurement stack knowing anything about requests.
type Observed struct {
	Inner Provider
	// OnMeasure is invoked (possibly concurrently, from the measuring
	// goroutines) after each successful measurement. nil disables it.
	OnMeasure func()
}

// Measure implements Provider.
func (o Observed) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	rep, err := o.Inner.Measure(ctx, prog, cfg, opts)
	if err == nil && o.OnMeasure != nil {
		o.OnMeasure()
	}
	return rep, err
}
