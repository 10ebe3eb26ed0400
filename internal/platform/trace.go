package platform

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/cache"
	"liquidarch/internal/config"
	"liquidarch/internal/cpu"
)

// Trace is a recorded run of one program under one set of options: the
// functional outcome of the recording run plus the cpu trace every other
// configuration's timing is derived from (DESIGN.md §22).
type Trace struct {
	rec  *cpu.Trace
	opts Options // the recording's normalized options
	// ref is the recording run's report; every functional field of a
	// timed report (exit code, checksum, console, sampling, the interval
	// partition and signatures) is copied from it.
	ref *RunReport
}

// Record runs prog once on cfg, exactly as RunWith would, while recording
// a trace of the run. It returns the trace and the run's report, which is
// byte-identical to RunWith's. A run that faults or hits the instruction
// limit returns RunWith's error and no trace. opts must not carry a
// TraceWriter.
//
// started, when not nil, gets the trace before the run starts, so that
// Follow can walk behind the recording and Time can wait for it. A failed
// run seals that trace as failed: it declines every configuration, and a
// caller that falls back to RunWith meets the recording's error.
func Record(prog *asm.Program, cfg config.Config, opts Options, started func(*Trace)) (*Trace, *RunReport, error) {
	opts = opts.Normalized()
	if opts.TraceWriter != nil {
		return nil, nil, fmt.Errorf("platform: Record does not take a TraceWriter")
	}
	t0 := time.Now()
	defer func() { ctrTraceRecordNs.Add(uint64(time.Since(t0))) }()
	ctrTraceRecords.Add(1)
	e, err := acquireEngine(prog, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	t := &Trace{rec: e.core.StartRecording(), opts: opts}
	if started != nil {
		started(t)
	}
	rep, err := e.Run()
	t.ref = rep // before the seal, which publishes it to Time
	e.core.StopRecording(err)
	releaseEngine(e)
	ctrTraceStepped.Add(t.rec.StepInstructions())
	ctrTraceFollowed.Add(uint64(t.rec.Followed()))
	if err != nil {
		return nil, nil, err
	}
	return t, rep, nil
}

// WindowSensitive reports whether the recorded program can observe the
// register-window count, so that Time serves only the recording count.
func (t *Trace) WindowSensitive() bool { return t.rec.WindowSensitive() }

// Bytes returns the trace's approximate heap footprint.
func (t *Trace) Bytes() int { return t.rec.Bytes() }

// Class returns cfg's timing class on the trace, or false when Time
// declines cfg outright: configurations of one class get reports that
// differ only in Config (cpu.TimingClass).
func (t *Trace) Class(cfg config.Config) (cpu.TimingClass, bool) { return t.rec.Class(cfg) }

// Walks returns the number of walks made over the trace, one per timing
// class other than the recording configuration's.
func (t *Trace) Walks() int { return t.rec.Walks() }

// Followed returns how many of the trace's walks were made behind the
// recording and filed at its seal.
func (t *Trace) Followed() int { return t.rec.Followed() }

// Follow walks the dcache classes among cfgs behind the recording until
// it is sealed or ctx is done, and returns how many walks it started
// (cpu.Trace.Follow). Time finishes them.
func (t *Trace) Follow(ctx context.Context, cfgs []config.Config) int {
	return t.rec.Follow(ctx, cfgs)
}

// Time returns the report a RunWith of the recorded program and options
// on cfg would return, derived from the trace without executing the
// program. It waits for the recording to finish. ok is false when the
// trace cannot stand in for that run (see cpu.Trace.Time), or the
// recording failed; the caller then runs it in full. Time is safe for
// concurrent use, and walks the trace once per timing class; shared
// reports that this call did not walk, because the recording run or an
// earlier walk covered cfg's class.
func (t *Trace) Time(cfg config.Config) (rep *RunReport, shared, ok bool) {
	t0 := time.Now()
	defer func() { ctrTraceTimeNs.Add(uint64(time.Since(t0))) }()
	snaps, shared, ok := t.rec.Time(cfg)
	if !ok {
		ctrTraceDeclined.Add(1)
		return nil, false, false
	}
	ctrTraceTimed.Add(1)
	if shared {
		ctrTraceShared.Add(1)
	}
	ref := t.ref
	last := snaps[len(snaps)-1]
	rep = &RunReport{
		Config:   cfg,
		Stats:    last.Stats,
		ICache:   last.ICache,
		DCache:   last.DCache,
		ExitCode: ref.ExitCode,
		Checksum: ref.Checksum,
		Console:  ref.Console,
		Sampled:  ref.Sampled,
	}
	if ref.Intervals == nil {
		return rep, shared, true
	}
	// The interval stepper cuts once per step and keeps the steps that
	// retired instructions; the partition is functional, so the kept cuts
	// are the recording run's intervals one for one.
	rep.Intervals = make([]Interval, 0, len(ref.Intervals))
	var prev cpu.Snapshot
	for _, s := range snaps {
		if s.Stats.Instructions > prev.Stats.Instructions {
			ri := ref.Intervals[len(rep.Intervals)]
			rep.Intervals = append(rep.Intervals, Interval{
				Index:        ri.Index,
				Instructions: ri.Instructions,
				Stats:        s.Stats.Sub(prev.Stats),
				ICache:       s.ICache.Sub(prev.ICache),
				DCache:       s.DCache.Sub(prev.DCache),
				Signature:    slices.Clone(ri.Signature),
			})
		}
		prev = s
	}
	return rep, shared, true
}

// ReplaySchedule returns what ReplaySchedule of the recorded program on
// steps, under the recording's options, returns, timed from the trace
// without executing the program. declined, when not empty, says why the
// trace cannot stand in for that replay, and rep and err are nil: the
// recording has no intervals, the trace declines a configuration of the
// schedule (cpu.Trace.Replay), or a window trap or flush lands outside
// RAM. The caller then replays in full.
func (t *Trace) ReplaySchedule(steps []ReplayStep) (rep *ReplayReport, declined string, err error) {
	next, err := scheduleNext(steps)
	if err != nil {
		return nil, "", err
	}
	rep, declined = t.replay(steps[0].Config, next)
	if rep != nil {
		ctrReplayRuns.Add(1)
		ctrReplaySwitches.Add(uint64(rep.Switches))
	}
	return rep, declined, nil
}

// ReplayOnline returns what ReplayOnline of the recorded program from
// first, under the recording's options, returns, timed from the trace as
// ReplaySchedule is. decide gets every interval with the recorded
// signature and the timed profile. On a decline decide may already have
// been called for a prefix of the run.
func (t *Trace) ReplayOnline(first config.Config, decide func(i int, iv Interval) config.Config) (rep *ReplayReport, declined string) {
	rep, declined = t.replay(first, onlineNext(decide))
	if rep != nil {
		ctrOnlineRuns.Add(1)
		ctrOnlineSwitches.Add(uint64(rep.Switches))
	}
	return rep, declined
}

// replay walks the trace from first through the replay segment builder.
func (t *Trace) replay(first config.Config, next nextFn) (*ReplayReport, string) {
	if t.opts.IntervalInstructions == 0 {
		return nil, "recorded without intervals"
	}
	r, why := t.rec.Replay(first)
	if why != "" {
		return nil, why
	}
	src := &traceReplay{t: t, r: r}
	rep, err := replay(src, first, next, t.opts)
	if err != nil {
		return nil, r.Declined()
	}
	ref := t.ref
	rep.Intervals = len(ref.Intervals)
	rep.Stats = src.prev.Stats
	rep.ExitCode = ref.ExitCode
	rep.Checksum = ref.Checksum
	rep.Console = ref.Console
	ctrReplayTimed.Add(1)
	return rep, ""
}

// errReplayDeclined stops a trace replay whose walk declined; the walk
// keeps the reason.
var errReplayDeclined = errors.New("platform: the trace declines the replay")

// traceReplay is a replay timed from a recording: a cpu replay walk cut
// into the recording run's intervals.
type traceReplay struct {
	t *Trace
	r *cpu.Replay
	// prev is the walk's snapshot at the last cut, its cache counters
	// zeroed by a switch.
	prev cpu.Snapshot
}

// run visits the recording's intervals, timed. The recording cut once per
// interval step and kept the steps that retired instructions, and its
// last cut ended the run, so an interval is final iff its cut is the last.
func (w *traceReplay) run(visit func(iv Interval, more bool) error) (bool, error) {
	ref := w.t.ref
	cuts, n := w.t.rec.Cuts(), 0
	for k := 0; k < cuts; k++ {
		s, ok := w.r.Next()
		if !ok {
			return false, errReplayDeclined
		}
		prev := w.prev
		w.prev = s
		if s.Stats.Instructions == prev.Stats.Instructions {
			continue
		}
		ri := ref.Intervals[n]
		n++
		iv := Interval{
			Index:        ri.Index,
			Instructions: ri.Instructions,
			Stats:        s.Stats.Sub(prev.Stats),
			ICache:       s.ICache.Sub(prev.ICache),
			DCache:       s.DCache.Sub(prev.DCache),
			Signature:    slices.Clone(ri.Signature),
		}
		if err := visit(iv, k < cuts-1); err != nil {
			return false, err
		}
	}
	return ref.Sampled, nil
}

func (w *traceReplay) reconfigure(cfg config.Config) error {
	if !w.r.Switch(cfg) {
		return errReplayDeclined
	}
	w.prev.ICache, w.prev.DCache = cache.Stats{}, cache.Stats{}
	return nil
}
