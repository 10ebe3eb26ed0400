package platform

import (
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
func Record(prog *asm.Program, cfg config.Config, opts Options) (*Trace, *RunReport, error) {
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
	rec := e.core.StartRecording()
	rep, err := e.Run()
	e.core.StopRecording()
	releaseEngine(e)
	if err != nil {
		return nil, nil, err
	}
	return &Trace{rec: rec, ref: rep}, rep, nil
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

// Walks returns the number of walks Time has made over the trace, one per
// timing class other than the recording configuration's.
func (t *Trace) Walks() int { return t.rec.Walks() }

// Time returns the report a RunWith of the recorded program and options
// on cfg would return, derived from the trace without executing the
// program. ok is false when the trace cannot stand in for that run (see
// cpu.Trace.Time); the caller then runs it in full. Time is safe for
// concurrent use, and walks the trace once per timing class.
func (t *Trace) Time(cfg config.Config) (rep *RunReport, ok bool) {
	t0 := time.Now()
	defer func() { ctrTraceTimeNs.Add(uint64(time.Since(t0))) }()
	snaps, shared, ok := t.rec.Time(cfg)
	if !ok {
		ctrTraceDeclined.Add(1)
		return nil, false
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
		return rep, true
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
	return rep, true
}
