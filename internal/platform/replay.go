// Schedule replay and online adaptation: one simulation whose platform
// configuration is reshaped at interval boundaries (DESIGN.md §19).
// ReplaySchedule executes a precomputed configuration schedule — the
// per-phase plan a tuning run laid over the trace — and ReplayOnline
// closes the loop: a caller-supplied decision function watches each
// completed interval's block-signature vector and picks the next
// configuration live, with no schedule at all.
//
// A reconfiguration hands the running program to a freshly built core
// on the same memory via cpu.AdoptArchState: architectural state
// carries over exactly, caches and the write buffer come up cold (a
// reconfigured cache on real fabric holds no valid lines either), and
// no cycles are charged for the switch itself — the reconfiguration
// penalty is an explicit model (the schedule's SwitchPenaltyCycles),
// accounted by the caller, not buried in the simulation. A boundary
// whose configuration does not change is a pure bookkeeping cut: the
// same core keeps running, so a replay whose every step names the same
// configuration is byte-identical to a plain interval-profiled run.
package platform

import (
	"fmt"

	"liquidarch/internal/asm"
	"liquidarch/internal/cache"
	"liquidarch/internal/config"
	"liquidarch/internal/cpu"
	"liquidarch/internal/mem"
	"liquidarch/internal/profiler"
)

// ReplayStep is one stretch of a replay schedule: run Intervals
// profiling intervals under Config. The final step may set Intervals to
// a negative value, meaning "to completion" (or to the sample limit).
type ReplayStep struct {
	// Config is the configuration the stretch runs under.
	Config config.Config
	// Intervals is the stretch length in profiling intervals; negative
	// (final step only) runs to completion.
	Intervals int
}

// ReplaySegment aggregates one schedule step's actual cost: the
// profile delta, cache events and interval span it covered. Cache
// counters restart from zero at each reconfiguration (the new core's
// caches come up cold); within an unswitched boundary they continue.
type ReplaySegment struct {
	// Index is the segment's position, from 0.
	Index int `json:"index"`
	// Start and End are the first and last interval indices covered,
	// inclusive.
	Start int `json:"start"`
	End   int `json:"end"`
	// Config is the configuration the segment ran under.
	Config config.Config `json:"config"`
	// Instructions is the segment length; Stats the profile delta
	// (Stats.Cycles is the segment's actual cycle cost).
	Instructions uint64         `json:"instructions"`
	Stats        profiler.Stats `json:"stats"`
	// ICache and DCache are the cache event deltas over the segment.
	ICache cache.Stats `json:"icache"`
	DCache cache.Stats `json:"dcache"`
	// Switched is true when entering this segment reconfigured the
	// platform (its configuration differs from the previous segment's).
	Switched bool `json:"switched,omitempty"`
}

// ReplayReport is the outcome of a reconfiguring run.
type ReplayReport struct {
	// Segments are the per-stretch actual costs, in execution order.
	Segments []ReplaySegment `json:"segments"`
	// Switches counts the mid-run reconfigurations performed (segments
	// entered with a configuration change).
	Switches int `json:"switches"`
	// Stats is the whole-run cumulative profile — the architectural
	// instruction stream is configuration-independent, so
	// Stats.Instructions matches any single-configuration run of the
	// program; Stats.Cycles is the replay's actual simulated cost,
	// excluding the modeled reconfiguration penalty (the caller's
	// switch-cost model adds it).
	Stats profiler.Stats `json:"stats"`
	// ICache and DCache sum the per-segment cache deltas.
	ICache cache.Stats `json:"icache"`
	DCache cache.Stats `json:"dcache"`
	// ExitCode and Checksum are %o0 and %o1 at the halt trap,
	// meaningful for completed runs only.
	ExitCode uint32 `json:"exit_code"`
	Checksum uint32 `json:"checksum"`
	// Console is everything the program wrote to the UART.
	Console string `json:"console,omitempty"`
	// Sampled is true when the run was truncated by
	// Options.SampleInstructions before the program halted.
	Sampled bool `json:"sampled,omitempty"`
	// IntervalInstructions is the profiling interval length the replay
	// ran at; Intervals the total interval count.
	IntervalInstructions uint64 `json:"interval_instructions"`
	Intervals            int    `json:"intervals"`
}

// nextFn is consulted at every live interval boundary with the
// just-completed interval; it returns the configuration for the next
// stretch and whether a new report segment starts at this boundary even
// if the configuration is unchanged (schedule steps cut segments so
// their actual costs stay separable; online mode cuts only on change).
type nextFn func(i int, iv Interval) (config.Config, bool)

// ReplaySchedule executes prog once, reshaping the configuration at the
// schedule's step boundaries. Every step but the last must cover a
// positive number of intervals; a negative count on the last step runs
// to completion. Options follow RunWith semantics; IntervalInstructions
// must be set (it defines the boundary grid — a tuning trace's replay
// passes the length the trace was detected at).
func ReplaySchedule(prog *asm.Program, steps []ReplayStep, opts Options) (*ReplayReport, error) {
	next, err := scheduleNext(steps)
	if err != nil {
		return nil, err
	}
	rep, err := replayRun(prog, steps[0].Config, next, opts)
	if err != nil {
		return nil, err
	}
	ctrReplayRuns.Add(1)
	ctrReplaySwitches.Add(uint64(rep.Switches))
	return rep, nil
}

// scheduleNext checks a replay schedule and returns the boundary function
// that walks it.
func scheduleNext(steps []ReplayStep) (nextFn, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("platform: replay schedule is empty")
	}
	for i, s := range steps {
		if s.Intervals == 0 || (s.Intervals < 0 && i != len(steps)-1) {
			return nil, fmt.Errorf("platform: replay step %d covers %d intervals", i, s.Intervals)
		}
	}
	cur := 0
	end := steps[0].Intervals // first interval index beyond the current step; <0 = unbounded
	return func(i int, _ Interval) (config.Config, bool) {
		if end >= 0 && i+1 >= end && cur+1 < len(steps) {
			cur++
			if steps[cur].Intervals < 0 {
				end = -1
			} else {
				end += steps[cur].Intervals
			}
			return steps[cur].Config, true
		}
		return steps[cur].Config, false
	}, nil
}

// ReplayOnline executes prog once in closed-loop mode: after each
// completed interval, decide receives the interval (index, profile
// delta and block-signature vector) and returns the configuration for
// the next stretch — typically by classifying the signature against a
// phase trace's representatives (phase.Classifier). The run starts on
// first; a decision equal to the current configuration keeps the core
// running untouched.
func ReplayOnline(prog *asm.Program, first config.Config, decide func(i int, iv Interval) config.Config, opts Options) (*ReplayReport, error) {
	rep, err := replayRun(prog, first, onlineNext(decide), opts)
	if err != nil {
		return nil, err
	}
	ctrOnlineRuns.Add(1)
	ctrOnlineSwitches.Add(uint64(rep.Switches))
	return rep, nil
}

// onlineNext is the boundary function of an online run: it cuts a
// segment only where decide changes the configuration.
func onlineNext(decide func(i int, iv Interval) config.Config) nextFn {
	return func(i int, iv Interval) (config.Config, bool) {
		return decide(i, iv), false
	}
}

// replaySource is what a replay steps through: a live run (liveReplay) or
// a walk of its recording (traceReplay).
type replaySource interface {
	// run visits every interval that retired instructions, with more
	// false for the final one, and reports whether the sample limit ended
	// the run. visit may reconfigure the source before it returns.
	run(visit func(iv Interval, more bool) error) (sampled bool, err error)
	// reconfigure switches the run to cfg at the boundary just visited.
	reconfigure(cfg config.Config) error
}

// replay steps src from first, consulting next at every live boundary,
// and builds the report's segments: the one segment builder behind live
// replays and replays timed from a trace. The caller fills in the
// whole-run fields.
func replay(src replaySource, first config.Config, next nextFn, opts Options) (*ReplayReport, error) {
	rep := &ReplayReport{IntervalInstructions: opts.IntervalInstructions}
	seg := ReplaySegment{Config: first}
	segEmpty := true
	closeSegment := func() {
		if segEmpty {
			return
		}
		rep.ICache.Add(seg.ICache)
		rep.DCache.Add(seg.DCache)
		rep.Segments = append(rep.Segments, seg)
	}

	sampled, err := src.run(func(iv Interval, more bool) error {
		if segEmpty {
			seg.Start = iv.Index
			segEmpty = false
		}
		seg.End = iv.Index
		seg.Instructions += iv.Instructions
		seg.Stats.Add(iv.Stats)
		seg.ICache.Add(iv.ICache)
		seg.DCache.Add(iv.DCache)
		if !more {
			return nil
		}
		cfg, cut := next(iv.Index, iv)
		switch {
		case cfg != seg.Config:
			closeSegment()
			if err := src.reconfigure(cfg); err != nil {
				return err
			}
			seg = ReplaySegment{Index: len(rep.Segments), Config: cfg, Switched: true}
			segEmpty = true
			rep.Switches++
		case cut:
			closeSegment()
			seg = ReplaySegment{Index: len(rep.Segments), Config: cfg}
			segEmpty = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	closeSegment()
	rep.Sampled = sampled
	return rep, nil
}

// liveReplay is a reconfiguring run of the program: the interval stepper
// over a core that a switch replaces with a freshly built one on the same
// memory.
type liveReplay struct {
	stepper
	prog *asm.Program
	m    *mem.Memory
}

func (l *liveReplay) reconfigure(cfg config.Config) error {
	nc, err := newCore(l.prog, cfg, l.opts, l.m)
	if err != nil {
		return err
	}
	if err := nc.AdoptArchState(l.core); err != nil {
		return fmt.Errorf("platform: %w", err)
	}
	foldSuperblocks(l.core, new(cpu.SuperblockStats)) // each replay core folds once
	l.swap(nc)
	return nil
}

// replayRun is the reconfiguring run behind both modes. Replay runs
// build a fresh memory per call (no pooling: a mid-run reconfiguration
// leaves the core mid-program, which a pooled engine's reset contract
// does not cover).
func replayRun(prog *asm.Program, first config.Config, next nextFn, opts Options) (*ReplayReport, error) {
	opts = opts.Normalized()
	if opts.IntervalInstructions == 0 {
		return nil, fmt.Errorf("platform: replay requires IntervalInstructions")
	}
	m, err := loadMemory(prog, opts.RAMBytes)
	if err != nil {
		return nil, err
	}
	core, err := newCore(prog, first, opts, m)
	if err != nil {
		return nil, err
	}
	core.Reset(prog.Entry)
	src := &liveReplay{stepper: stepper{core: core, opts: opts}, prog: prog, m: m}
	rep, err := replay(src, first, next, opts)
	if err != nil {
		return nil, err
	}
	foldSuperblocks(src.core, new(cpu.SuperblockStats))
	rep.Intervals = src.n
	rep.Stats = src.core.Stats()
	rep.ExitCode = src.core.ExitCode()
	rep.Checksum = src.core.Reg(9) // %o1
	rep.Console = m.Console()
	return rep, nil
}
