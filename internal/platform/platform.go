// Package platform is the reproduction of the Liquid Architecture
// platform: it instantiates the LEON2-like processor with a chosen
// microarchitecture configuration, loads an application, executes it
// directly (no OS), and returns the cycle-accurate profile that the paper's
// hardware statistics module would report.
//
// Runs are zero-alloc-steady: an Engine owns a core and a RAM whose
// post-load contents are snapshotted once, and every Run restores the
// snapshot and resets the core instead of allocating a fresh 8 MiB image
// and re-loading the program. Run/RunWith draw engines from a process-wide
// pool keyed by (program, configuration, options), so hot measurement
// loops reuse the same core and memory end to end (DESIGN.md §9).
package platform

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"liquidarch/internal/asm"
	"liquidarch/internal/cache"
	"liquidarch/internal/config"
	"liquidarch/internal/cpu"
	"liquidarch/internal/mem"
	"liquidarch/internal/profiler"
)

// DefaultMaxInstructions bounds a single run; the scaled-down workloads
// stay far below it.
const DefaultMaxInstructions = 2_000_000_000

// Options configures a run.
type Options struct {
	// RAMBytes sizes main memory (default 8 MiB).
	RAMBytes int
	// MaxInstructions aborts runaway programs (default 2e9).
	MaxInstructions uint64
	// SampleInstructions, when nonzero, stops the run cleanly after that
	// many instructions instead of waiting for the halt trap — the
	// paper's future-work "runtime sampling" for long applications. The
	// report's Sampled flag records a truncated run; exit code and
	// checksum are only meaningful for completed runs.
	SampleInstructions uint64
	// IntervalInstructions, when nonzero, turns on interval profiling:
	// the run is split at exact instruction-count boundaries of this
	// length and the report carries one Interval snapshot (stat deltas
	// plus a block-signature vector) per stretch. Because boundaries are
	// instruction counts and the instruction stream is
	// configuration-independent, intervals of the same program align
	// one-to-one across configurations — the property per-phase tuning
	// rests on. Combines with SampleInstructions (profiling stops at the
	// sample limit).
	IntervalInstructions uint64
	// TraceWriter, when non-nil, receives a disassembled execution trace
	// of the first TraceLimit instructions.
	TraceWriter io.Writer
	// TraceLimit bounds the trace length (default 0 = no trace).
	TraceLimit uint64
	// SuperblockThreshold tunes superblock specialization in the core
	// (DESIGN.md §17): 0 inherits the process default (on, at
	// cpu.DefaultSuperblockThreshold, unless SetDefaultTuning changed it),
	// a negative value disables specialization for this run, and a
	// positive value compiles hot blocks at that taken-branch heat. The
	// knob changes wall-clock speed only — every reported number is
	// byte-identical either way — so package measure excludes it from
	// result cache keys.
	SuperblockThreshold int
}

// Normalized fills in the option defaults. Callers that derive cache keys
// from Options (package measure) normalize first so explicit defaults and
// zero values collide on the same key.
func (o Options) Normalized() Options {
	if o.RAMBytes == 0 {
		o.RAMBytes = mem.DefaultRAMBytes
	}
	if o.MaxInstructions == 0 {
		o.MaxInstructions = DefaultMaxInstructions
	}
	// Resolve the tuning sentinel to a concrete value (0 = process
	// default, negative = off) so pool keys built from normalized options
	// attribute engines to the execution mode they actually run.
	switch {
	case o.SuperblockThreshold == 0:
		o.SuperblockThreshold = int(defaultSBThreshold.Load())
	case o.SuperblockThreshold < 0:
		o.SuperblockThreshold = 0
	}
	return o
}

// SignatureBuckets is the length of an interval's block-signature
// vector: taken-CTI targets are folded into this many buckets. 64 is
// coarse enough to stay cheap and fine enough to separate the loop
// nests of the benchmark programs (whose text segments are a few KB).
const SignatureBuckets = 64

// signatureShift groups CTI targets into 16-byte (4-instruction) blocks
// before bucketing, so adjacent branch targets inside one small loop
// share a bucket instead of striping across the vector.
const signatureShift = 4

// Interval is one interval-profiling snapshot: the profile delta of an
// exact IntervalInstructions-long stretch of the run (the final interval
// may be shorter), plus the block-signature vector accumulated over it.
type Interval struct {
	// Index is the interval's position in the run, from 0.
	Index int `json:"index"`
	// Instructions is the stretch length (== the configured interval
	// length except for the final interval).
	Instructions uint64 `json:"instructions"`
	// Stats is the profile delta over the stretch; Stats.Cycles is the
	// stretch's cycle cost.
	Stats profiler.Stats `json:"stats"`
	// ICache and DCache are the cache event deltas over the stretch.
	ICache cache.Stats `json:"icache"`
	DCache cache.Stats `json:"dcache"`
	// Signature counts taken control transfers per target bucket — a
	// coarse basic-block vector characterizing where execution spent the
	// stretch.
	Signature []uint32 `json:"signature"`
}

// RunReport is the outcome of executing an application on a configuration.
type RunReport struct {
	// Config is the microarchitecture the application ran on.
	Config config.Config
	// Stats is the cycle-accurate profile.
	Stats profiler.Stats
	// ICache and DCache are the cache event counters.
	ICache, DCache cache.Stats
	// ExitCode is %o0 at the halt trap (0 = success by convention).
	ExitCode uint32
	// Checksum is %o1 at the halt trap; benchmark programs leave their
	// result digest there for golden-model validation.
	Checksum uint32
	// Console is everything the program wrote to the UART.
	Console string
	// Sampled is true when the run was truncated by
	// Options.SampleInstructions before the program halted.
	Sampled bool
	// Intervals carries the interval-profiling snapshots when
	// Options.IntervalInstructions was set; nil otherwise. The whole-run
	// Stats/ICache/DCache equal the field-wise sum of the intervals.
	Intervals []Interval `json:"intervals,omitempty"`
}

// Cycles returns the total cycle count.
func (r *RunReport) Cycles() uint64 { return r.Stats.Cycles }

// Seconds converts cycles to seconds at the platform's 25 MHz clock.
func (r *RunReport) Seconds() float64 { return r.Stats.Seconds(0) }

// Engine binds one assembled program to one configured core and memory
// for repeated runs. The memory is loaded once and snapshotted; each Run
// restores the snapshot (a straight memcpy of the pristine image) and
// resets the core, so steady-state runs allocate nothing but the report.
type Engine struct {
	prog *asm.Program
	cfg  config.Config
	opts Options
	m    *mem.Memory
	core *cpu.Core
	used bool
	// lastSB is the core's superblock-counter watermark at the end of the
	// previous run; Run folds the delta into the process-wide counters.
	lastSB cpu.SuperblockStats
}

// NewEngine builds an engine for repeated runs of prog on cfg.
func NewEngine(prog *asm.Program, cfg config.Config, opts Options) (*Engine, error) {
	opts = opts.Normalized()
	m := mem.New(opts.RAMBytes)
	return newEngineOn(m, prog, cfg, opts, true)
}

// newEngineOn wires a core around an existing memory. load says whether
// the program image still has to be written (false for a pooled memory,
// which is already loaded and snapshotted).
func newEngineOn(m *mem.Memory, prog *asm.Program, cfg config.Config, opts Options, load bool) (*Engine, error) {
	if load {
		if err := prog.Load(m); err != nil {
			return nil, fmt.Errorf("platform: %w", err)
		}
		m.Snapshot()
	}
	core, err := cpu.New(cfg, m)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	if err := core.LoadText(prog.TextBase, prog.TextWords()); err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	core.EnableSuperblocks(opts.SuperblockThreshold)
	return &Engine{prog: prog, cfg: cfg, opts: opts, m: m, core: core}, nil
}

// Run executes the program once and returns its report.
func (e *Engine) Run() (*RunReport, error) {
	if e.used {
		e.m.RestoreSnapshot()
	}
	e.used = true
	core := e.core
	core.Reset(e.prog.Entry)
	if e.opts.TraceWriter != nil {
		core.SetTrace(e.opts.TraceWriter, e.opts.TraceLimit)
	}
	var (
		sampled   bool
		intervals []Interval
	)
	switch {
	case e.opts.IntervalInstructions > 0:
		var err error
		intervals, sampled, err = e.runIntervals()
		if err != nil {
			return nil, err
		}
	case e.opts.SampleInstructions > 0:
		halted, err := core.RunFor(e.opts.SampleInstructions)
		if err != nil {
			return nil, fmt.Errorf("platform: %w", err)
		}
		sampled = !halted
	default:
		if err := core.Run(e.opts.MaxInstructions); err != nil {
			return nil, fmt.Errorf("platform: %w", err)
		}
	}
	e.foldSuperblockCounters()
	return &RunReport{
		Config:    e.cfg,
		Stats:     core.Stats(),
		ICache:    core.ICacheStats(),
		DCache:    core.DCacheStats(),
		ExitCode:  core.ExitCode(),
		Checksum:  core.Reg(9), // %o1
		Console:   e.m.Console(),
		Sampled:   sampled,
		Intervals: intervals,
	}, nil
}

// runIntervals drives the run in IntervalInstructions-sized steps,
// snapshotting the profile delta and the block-signature vector at every
// boundary. Boundaries are exact instruction counts (core.RunFor stops
// precisely at its target), so the same program produces the same
// interval partition on every configuration. The loop adds no work to
// the simulator's inner loop beyond the per-taken-CTI signature
// increment — each step is a plain fast-path run to a nearer target.
func (e *Engine) runIntervals() (intervals []Interval, sampled bool, err error) {
	core := e.core
	core.EnableBlockVector(SignatureBuckets, signatureShift)
	every := e.opts.IntervalInstructions
	sample := e.opts.SampleInstructions
	var prev profiler.Stats
	var prevIC, prevDC cache.Stats
	for {
		done := prev.Instructions
		// Clamp each step to every remaining bound: the sample limit and
		// the runaway guard. Without the MaxInstructions clamp a huge (or
		// overflowing) interval length would run unboundedly — the
		// non-interval path aborts at the limit, so must this one.
		step := every
		if sample > 0 && step > sample-done {
			step = sample - done
		}
		if step > e.opts.MaxInstructions-done {
			step = e.opts.MaxInstructions - done
		}
		halted, err := core.RunFor(step)
		if err != nil {
			return nil, false, fmt.Errorf("platform: %w", err)
		}
		st, ic, dc := core.Stats(), core.ICacheStats(), core.DCacheStats()
		if st.Instructions > prev.Instructions {
			intervals = append(intervals, Interval{
				Index:        len(intervals),
				Instructions: st.Instructions - prev.Instructions,
				Stats:        st.Sub(prev),
				ICache:       ic.Sub(prevIC),
				DCache:       dc.Sub(prevDC),
				Signature:    core.TakeBlockVector(),
			})
		}
		prev, prevIC, prevDC = st, ic, dc
		if halted {
			return intervals, false, nil
		}
		if sample > 0 && st.Instructions >= sample {
			return intervals, true, nil
		}
		if st.Instructions >= e.opts.MaxInstructions {
			return nil, false, fmt.Errorf("platform: instruction limit %d reached at pc %#08x",
				e.opts.MaxInstructions, core.PC())
		}
	}
}

// Engine/memory pools. Engines are reused for repeated identical
// (program, configuration, options) runs — the zero-alloc steady state of
// measurement loops. Loaded-and-snapshotted memories are reused across
// configurations of the same program, because the 8 MiB image is
// configuration-independent; rebuilding a core around a pooled memory
// costs only the (small) cache tag stores and the text predecode.
type engineKey struct {
	prog     *asm.Program
	cfg      config.Config
	ram      int
	maxI     uint64
	sample   uint64
	interval uint64
	// sb is the resolved superblock threshold. It cannot change results,
	// but a pooled engine carries compiled superblocks, so mixing modes
	// under one key would misattribute the wall-clock cost each mode is
	// being measured against.
	sb int
}

type memKey struct {
	prog *asm.Program
	ram  int
}

// DefaultEnginePoolSize and DefaultMemoryPoolSize are the pool bounds a
// fresh process starts with; SetPoolLimits retunes them for a specific
// deployment (e.g. the autoarchd daemon sizing pools to its worker count).
const DefaultEnginePoolSize = 8

func DefaultMemoryPoolSize() int { return max(8, runtime.NumCPU()) }

var pool = struct {
	sync.Mutex
	engines    map[engineKey][]*Engine
	nEng       int
	mems       map[memKey][]*mem.Memory
	nMem       int
	maxEngines int
	maxMems    int
}{
	engines:    make(map[engineKey][]*Engine),
	mems:       make(map[memKey][]*mem.Memory),
	maxEngines: DefaultEnginePoolSize,
	maxMems:    DefaultMemoryPoolSize(),
}

// SetPoolLimits bounds the engine and loaded-memory pools. Nonpositive
// values keep the corresponding current limit. Shrinking releases the
// excess pooled objects immediately.
func SetPoolLimits(engines, memories int) {
	pool.Lock()
	defer pool.Unlock()
	if engines > 0 {
		pool.maxEngines = engines
	}
	if memories > 0 {
		pool.maxMems = memories
	}
	trimPoolLocked()
}

// trimPoolLocked drops pooled objects until both pools are within their
// limits.
func trimPoolLocked() {
	for k, es := range pool.engines {
		for pool.nEng > pool.maxEngines && len(es) > 0 {
			es = es[:len(es)-1]
			pool.nEng--
		}
		if len(es) == 0 {
			delete(pool.engines, k)
		} else {
			pool.engines[k] = es
		}
	}
	for k, ms := range pool.mems {
		for pool.nMem > pool.maxMems && len(ms) > 0 {
			ms = ms[:len(ms)-1]
			pool.nMem--
		}
		if len(ms) == 0 {
			delete(pool.mems, k)
		} else {
			pool.mems[k] = ms
		}
	}
}

// PoolStats is a point-in-time snapshot of the engine/memory pools, for
// the daemon's metrics endpoint.
type PoolStats struct {
	// Engines and Memories are the pooled object counts; the limits are
	// the caps SetPoolLimits configured.
	Engines     int `json:"engines"`
	EngineLimit int `json:"engine_limit"`
	Memories    int `json:"memories"`
	MemoryLimit int `json:"memory_limit"`
}

// PoolSnapshot returns the current pool occupancy and limits.
func PoolSnapshot() PoolStats {
	pool.Lock()
	defer pool.Unlock()
	return PoolStats{
		Engines:     pool.nEng,
		EngineLimit: pool.maxEngines,
		Memories:    pool.nMem,
		MemoryLimit: pool.maxMems,
	}
}

func acquireEngine(prog *asm.Program, cfg config.Config, opts Options) (*Engine, error) {
	ek := engineKey{prog: prog, cfg: cfg, ram: opts.RAMBytes, maxI: opts.MaxInstructions,
		sample: opts.SampleInstructions, interval: opts.IntervalInstructions,
		sb: opts.SuperblockThreshold}
	mk := memKey{prog: prog, ram: opts.RAMBytes}
	pool.Lock()
	if es := pool.engines[ek]; len(es) > 0 {
		e := es[len(es)-1]
		pool.engines[ek] = es[:len(es)-1]
		pool.nEng--
		pool.Unlock()
		return e, nil
	}
	var m *mem.Memory
	if ms := pool.mems[mk]; len(ms) > 0 {
		m = ms[len(ms)-1]
		pool.mems[mk] = ms[:len(ms)-1]
		pool.nMem--
	}
	pool.Unlock()
	if m != nil {
		m.RestoreSnapshot()
		return newEngineOn(m, prog, cfg, opts, false)
	}
	return NewEngine(prog, cfg, opts)
}

func releaseEngine(e *Engine) {
	ek := engineKey{prog: e.prog, cfg: e.cfg, ram: e.opts.RAMBytes, maxI: e.opts.MaxInstructions,
		sample: e.opts.SampleInstructions, interval: e.opts.IntervalInstructions,
		sb: e.opts.SuperblockThreshold}
	pool.Lock()
	defer pool.Unlock()
	if pool.nEng < pool.maxEngines {
		pool.engines[ek] = append(pool.engines[ek], e)
		pool.nEng++
		return
	}
	// Engine pool full: keep the expensive part (the loaded 8 MiB memory
	// plus its snapshot) if there is room, drop the rest.
	if pool.nMem < pool.maxMems {
		mk := memKey{prog: e.prog, ram: e.opts.RAMBytes}
		pool.mems[mk] = append(pool.mems[mk], e.m)
		pool.nMem++
	}
}

// Run executes an assembled program on the given configuration with
// default options.
func Run(prog *asm.Program, cfg config.Config) (*RunReport, error) {
	return RunWith(prog, cfg, Options{})
}

// RunWith executes an assembled program with explicit options. Trace-free
// runs draw their engine from the process-wide pool.
func RunWith(prog *asm.Program, cfg config.Config, opts Options) (*RunReport, error) {
	opts = opts.Normalized()
	if opts.TraceWriter != nil {
		e, err := NewEngine(prog, cfg, opts)
		if err != nil {
			return nil, err
		}
		return e.Run()
	}
	e, err := acquireEngine(prog, cfg, opts)
	if err != nil {
		return nil, err
	}
	rep, err := e.Run()
	releaseEngine(e)
	return rep, err
}

// RunSource assembles and executes source text in one step.
func RunSource(src string, cfg config.Config) (*RunReport, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	return Run(prog, cfg)
}
