package core_test

import (
	"context"
	"testing"

	"liquidarch/internal/core"
	"liquidarch/internal/platform"
	"liquidarch/internal/workload"
)

// TestColdTuneRecordsOnce: a cold full-space tune executes its program
// once. The model build's first measurement records the run, and every
// other configuration, the validation included, is timed from that
// recording without a single decline. A phase tune, whose measurements
// all carry interval profiling, records once too.
func TestColdTuneRecordsOnce(t *testing.T) {
	for _, req := range []core.Request{
		{App: "arith", Scale: workload.Tiny},
		{App: "mix", Scale: workload.Tiny, Phases: &core.PhaseOptions{IntervalInstructions: 20_000}},
	} {
		sess, sim := newCountedSession(t)
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
		// Every leaf measurement but the recording one was timed.
		if timed, sims := after.TraceTimed-before.TraceTimed, sim.calls.Load(); timed != uint64(sims-1) {
			t.Errorf("%s: timed %d of %d leaf measurements, want all but the recording", req.App, timed, sims)
		}
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
