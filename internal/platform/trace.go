package platform

import (
	"context"
	"fmt"
	"slices"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/cpu"
)

// Trace is a recorded run of one program under one set of options: the
// functional outcome of the recording run plus the cpu trace every other
// configuration's timing is derived from (DESIGN.md §22).
type Trace struct {
	rec *cpu.Trace
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
	t := &Trace{rec: e.core.StartRecording()}
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
