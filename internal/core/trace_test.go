package core_test

import (
	"context"
	"sync"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/cpu"
	"liquidarch/internal/measure"
	"liquidarch/internal/platform"
	"liquidarch/internal/workload"
)

// leafLog records the configurations a session's leaf measures, and the
// program and options they were measured with.
type leafLog struct {
	mu   sync.Mutex
	prog *asm.Program
	opts platform.Options
	cfgs []config.Config
}

func (l *leafLog) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	l.mu.Lock()
	l.prog, l.opts, l.cfgs = prog, opts, append(l.cfgs, cfg)
	l.mu.Unlock()
	return measure.Simulator{}.Measure(ctx, prog, cfg, opts)
}

// TestColdTuneRecordsOnce: a cold full-space tune executes its program
// once. The model build's first measurement records the run, and every
// other configuration, the validation included, is timed from that
// recording without a single decline, walking the trace once per timing
// class other than the recording configuration's. A phase tune, whose
// measurements all carry interval profiling, records once too, and times
// its schedule replay and online run from that recording: no full run.
func TestColdTuneRecordsOnce(t *testing.T) {
	for _, req := range []core.Request{
		{App: "arith", Scale: workload.Tiny},
		{App: "mix", Scale: workload.Tiny, Phases: &core.PhaseOptions{IntervalInstructions: 20_000}, Replay: true, Online: true},
	} {
		leaf := &leafLog{}
		sess := core.NewSession(core.SessionOptions{Provider: measure.NewCache(leaf, 512)})
		before := platform.Counters()
		if _, err := sess.Tune(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		after := platform.Counters()
		if d := after.TraceRecords - before.TraceRecords; d != 1 {
			t.Errorf("%s: trace records = %d, want 1", req.App, d)
		}
		if d := after.TraceDeclined - before.TraceDeclined; d != 0 {
			t.Errorf("%s: trace declines = %d, want 0", req.App, d)
		}
		// The recording ran on the fast loop: only the halt trap, the
		// programs' one fallback opcode, went through Step.
		if d := after.TraceStepInstrs - before.TraceStepInstrs; d != 1 {
			t.Errorf("%s: %d instructions recorded through Step, want the halt trap only", req.App, d)
		}
		// Every leaf measurement but the recording one was timed.
		timed, sims := after.TraceTimed-before.TraceTimed, len(leaf.cfgs)
		if timed != uint64(sims-1) {
			t.Errorf("%s: timed %d of %d leaf measurements, want all but the recording", req.App, timed, sims)
		}
		// The recording run seeds its own class; every other class is
		// walked once and serves the rest of its members.
		tr, _, err := platform.Record(leaf.prog, config.Default(), leaf.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		classes := map[cpu.TimingClass]bool{}
		for _, cfg := range leaf.cfgs {
			k, _ := tr.Class(cfg)
			classes[k] = true
		}
		walks := timed - (after.TraceShared - before.TraceShared)
		if walks != uint64(len(classes)-1) {
			t.Errorf("%s: %d walks for %d configurations in %d classes, want one per class but the recording's", req.App, walks, sims, len(classes))
		}
		// Walks made behind the recording are among them.
		if d := after.TraceFollowed - before.TraceFollowed; d > walks {
			t.Errorf("%s: %d walks followed the recording, of %d", req.App, d, walks)
		}
		if req.Replay {
			timed := after.ReplayTimed - before.ReplayTimed
			all := after.ReplayRuns + after.OnlineRuns - before.ReplayRuns - before.OnlineRuns
			if timed != 2 || all != 2 {
				t.Errorf("%s: %d of %d replays timed from the recording, want 2 of 2", req.App, timed, all)
			}
		}
	}
}

// TestArtifactModelReplaysInFull: a phase tune whose model comes from a
// durable artifact has no recording, so its schedule replay and online
// run both run in full, and no trace is recorded for them.
func TestArtifactModelReplaysInFull(t *testing.T) {
	store, err := core.NewModelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{App: "mix", Scale: workload.Tiny, Space: config.DcacheGeometrySpace(),
		Phases: &core.PhaseOptions{IntervalInstructions: 20_000}, Replay: true, Online: true}
	var reps [2]*core.Report
	for i := range reps {
		sess := core.NewSession(core.SessionOptions{Provider: measure.NewCache(measure.Simulator{}, 512), ModelStore: store})
		before := platform.Counters()
		if reps[i], err = sess.Tune(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		after := platform.Counters()
		if i == 0 {
			continue
		}
		if d := sess.ModelStats().DiskHits; d != 1 {
			t.Fatalf("second session loaded %d model artifacts, want 1", d)
		}
		timed := after.ReplayTimed - before.ReplayTimed
		all := after.ReplayRuns + after.OnlineRuns - before.ReplayRuns - before.OnlineRuns
		if timed != 0 || all != 2 {
			t.Errorf("%d of %d replays timed from a trace, want 2 full runs", timed, all)
		}
		if d := after.TraceRecords - before.TraceRecords; d != 0 {
			t.Errorf("a tune on an artifact model recorded %d traces", d)
		}
	}
	if reps[0].Replay.SimulatedCycles != reps[1].Replay.SimulatedCycles || reps[0].Online.SimulatedCycles != reps[1].Online.SimulatedCycles {
		t.Error("the full replays differ from the ones timed from the recording")
	}
}

// TestSharedModelValidatesWithoutRecording: a request that reuses a
// model built earlier has one simulation left, its validation, which
// runs in full instead of recording a trace nothing else would use.
func TestSharedModelValidatesWithoutRecording(t *testing.T) {
	sess, sim := newCountedSession(t)
	req := core.Request{App: "arith", Scale: workload.Tiny, Weights: core.ResourceWeights()}
	if _, err := sess.Tune(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	calls, before := sim.calls.Load(), platform.Counters()
	req.Weights = core.RuntimeWeights()
	if _, err := sess.Tune(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if d := sim.calls.Load() - calls; d != 1 {
		t.Fatalf("second tune made %d leaf measurements, want its validation only", d)
	}
	if d := platform.Counters().TraceRecords - before.TraceRecords; d != 0 {
		t.Errorf("validation on a shared model recorded %d traces", d)
	}
}

// inFlight wraps a leaf and records the most measurements it ever had in
// flight at once.
type inFlight struct {
	mu       sync.Mutex
	now, max int
}

func (f *inFlight) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	f.mu.Lock()
	f.now++
	f.max = max(f.max, f.now)
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.now--
		f.mu.Unlock()
	}()
	return measure.Simulator{}.Measure(ctx, prog, cfg, opts)
}

// TestFollowerStaysWithinWorkers: the caller that walks behind the
// recording is one of the request's workers. No build has more
// measurements in flight than its worker bound, and with one worker the
// recording is over before any other measurement starts, so nothing
// follows it.
func TestFollowerStaysWithinWorkers(t *testing.T) {
	for _, workers := range []int{1, 2} {
		leaf := &inFlight{}
		sess := core.NewSession(core.SessionOptions{Provider: measure.NewCache(leaf, 512)})
		before := platform.Counters()
		req := core.Request{App: "blastn", Scale: workload.Tiny, Workers: workers}
		if _, err := sess.Tune(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		followed := platform.Counters().TraceFollowed - before.TraceFollowed
		if leaf.max > workers {
			t.Errorf("workers %d: %d measurements in flight", workers, leaf.max)
		}
		if workers == 1 && followed != 0 {
			t.Errorf("one worker: %d walks followed the recording", followed)
		}
		t.Logf("workers %d: %d walks followed the recording", workers, followed)
	}
}
