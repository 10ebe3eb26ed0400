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
	m, err := loadMemory(prog, opts.RAMBytes)
	if err != nil {
		return nil, err
	}
	m.Snapshot()
	return newEngine(m, prog, cfg, opts)
}

// newEngine wires a core around a memory that already holds prog.
func newEngine(m *mem.Memory, prog *asm.Program, cfg config.Config, opts Options) (*Engine, error) {
	core, err := newCore(prog, cfg, opts, m)
	if err != nil {
		return nil, err
	}
	return &Engine{prog: prog, cfg: cfg, opts: opts, m: m, core: core}, nil
}

// loadMemory returns a fresh memory of the given size holding prog's
// image.
func loadMemory(prog *asm.Program, ram int) (*mem.Memory, error) {
	m := mem.New(ram)
	if err := prog.Load(m); err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	return m, nil
}

// newCore builds a core for cfg over m, which already holds prog's
// image: the text predecoded, superblocks armed at
// cpu.DefaultSuperblockThreshold (DESIGN.md §17) and, for interval runs,
// block-signature collection on. It is the one core builder behind
// engines and replays alike.
func newCore(prog *asm.Program, cfg config.Config, opts Options, m *mem.Memory) (*cpu.Core, error) {
	core, err := cpu.New(cfg, m)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	if err := core.LoadText(prog.TextBase, prog.TextWords()); err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	core.EnableSuperblocks(cpu.DefaultSuperblockThreshold)
	if opts.IntervalInstructions > 0 {
		core.EnableBlockVector(SignatureBuckets, signatureShift)
	}
	return core, nil
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
		// A plain interval run is a replay that never switches.
		s := stepper{core: core, opts: e.opts}
		var err error
		sampled, err = s.run(func(iv Interval, _ bool) error {
			intervals = append(intervals, iv)
			return nil
		})
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
	foldSuperblocks(core, &e.lastSB)
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

// stepper drives a run in IntervalInstructions-sized steps and cuts an
// Interval (profile delta plus block-signature vector) at every
// boundary. It is the one interval loop behind interval-profiled runs
// and replays. Boundaries are exact instruction counts (core.RunFor
// stops precisely at its target), so the same program produces the same
// interval partition on every configuration, and a replay may swap the
// running core at any boundary. The loop adds no work to the simulator's
// inner loop beyond the per-taken-CTI signature increment: each step is
// a plain fast-path run to a nearer target.
type stepper struct {
	core *cpu.Core
	opts Options
	// n counts the intervals cut so far; prev, prevIC and prevDC are the
	// running core's counters at the last boundary.
	n              int
	prev           profiler.Stats
	prevIC, prevDC cache.Stats
}

// run steps to the end of the program or the sample limit and reports
// whether the sample limit ended it. visit receives every interval that
// retired instructions, with more false for the final one; it may swap
// the running core before returning. Reaching MaxInstructions is an
// error.
func (s *stepper) run(visit func(iv Interval, more bool) error) (sampled bool, err error) {
	every, sample, limit := s.opts.IntervalInstructions, s.opts.SampleInstructions, s.opts.MaxInstructions
	for {
		done := s.prev.Instructions
		// Clamp each step to every remaining bound: the sample limit and
		// the runaway guard. Without the MaxInstructions clamp a huge (or
		// overflowing) interval length would run unboundedly — the
		// non-interval path aborts at the limit, so must this one.
		step := every
		if sample > 0 && step > sample-done {
			step = sample - done
		}
		if step > limit-done {
			step = limit - done
		}
		halted, err := s.core.RunFor(step)
		if err != nil {
			return false, fmt.Errorf("platform: %w", err)
		}
		st := s.core.Stats()
		sampled = !halted && sample > 0 && st.Instructions >= sample
		if !halted && !sampled && st.Instructions >= limit {
			return false, fmt.Errorf("platform: instruction limit %d reached at pc %#08x", limit, s.core.PC())
		}
		if st.Instructions > done {
			ic, dc := s.core.ICacheStats(), s.core.DCacheStats()
			iv := Interval{
				Index:        s.n,
				Instructions: st.Instructions - done,
				Stats:        st.Sub(s.prev),
				ICache:       ic.Sub(s.prevIC),
				DCache:       dc.Sub(s.prevDC),
				Signature:    s.core.TakeBlockVector(),
			}
			s.n++
			s.prev, s.prevIC, s.prevDC = st, ic, dc
			if err := visit(iv, !halted && !sampled); err != nil {
				return false, err
			}
		}
		if halted || sampled {
			return sampled, nil
		}
	}
}

// swap hands the run to core, which has adopted the running core's
// architectural state. Its caches start cold, so their watermarks
// restart at zero.
func (s *stepper) swap(core *cpu.Core) {
	s.core = core
	s.prevIC, s.prevDC = cache.Stats{}, cache.Stats{}
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
}

func keyOf(prog *asm.Program, cfg config.Config, opts Options) engineKey {
	return engineKey{prog: prog, cfg: cfg, ram: opts.RAMBytes, maxI: opts.MaxInstructions,
		sample: opts.SampleInstructions, interval: opts.IntervalInstructions}
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
	ek := keyOf(prog, cfg, opts)
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
		return newEngine(m, prog, cfg, opts)
	}
	return NewEngine(prog, cfg, opts)
}

func releaseEngine(e *Engine) {
	ek := keyOf(e.prog, e.cfg, e.opts)
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
