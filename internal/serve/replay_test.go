package serve_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"liquidarch/internal/serve"
)

// TestReplayJobEndToEnd is the daemon's closed-loop acceptance test: a
// replay+online phase job over HTTP returns the conformance blocks —
// modeled-vs-replayed error within bound, divergences counted — and the
// /v1/metrics tuning counters record the replay and online runs and the
// phase switches they performed.
func TestReplayJobEndToEnd(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)

	st := postJob(t, ts, serve.JobRequest{
		App: "mix", Scale: "tiny", Space: "dcache",
		Phases: true, IntervalInstructions: 20_000,
		Replay: true, Online: true,
	})
	st = waitDone(t, ts, st.ID)
	if st.State != serve.StateDone {
		t.Fatalf("job state = %s, error = %s", st.State, st.Error)
	}
	if st.PhaseResult == nil {
		t.Fatal("done replay job has no phase result")
	}
	rep := st.PhaseResult
	if rep.Replay == nil {
		t.Fatal("replay job result has no replay block")
	}
	if rep.Online == nil {
		t.Fatal("online job result has no online block")
	}
	if math.Abs(rep.Replay.ErrorPct) > 5 {
		t.Errorf("modeled-vs-replayed error %.3f%% out of bounds", rep.Replay.ErrorPct)
	}
	if rep.Replay.Switches == 0 {
		t.Error("mix replay performed no configuration switches")
	}
	if rep.Online.Checksum != rep.Replay.Checksum {
		t.Error("online and replayed runs computed different checksums")
	}

	// The job's wire document reports divergences explicitly, even when
	// zero — a silent online run would be an unverifiable one.
	doc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"divergences"`, `"unclassified"`, `"error_pct"`} {
		if !bytes.Contains(doc, []byte(key)) {
			t.Errorf("job document omits %s", key)
		}
	}

	// A full-space build times most of its configurations from a timing
	// class already walked: arith executes no SAVE, so its 17 window
	// counts share the base's class.
	if full := waitDone(t, ts, postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "full"}).ID); full.State != serve.StateDone {
		t.Fatalf("full-space job state = %s, error = %s", full.State, full.Error)
	}

	// The tuning counters (process-wide, monotonic) must have recorded
	// the reshaping runs and their switches.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Tuning.ReplayRuns == 0 {
		t.Error("metrics report zero replay runs after a replay job")
	}
	if m.Tuning.OnlineRuns == 0 {
		t.Error("metrics report zero online runs after an online job")
	}
	if m.Tuning.ReplaySwitches == 0 {
		t.Error("metrics report zero replay switches after a switching replay")
	}
	// The jobs' model builds ran on a fresh cache: each recorded its
	// program once and timed the other configurations from the trace.
	if m.Tuning.TraceRecords == 0 || m.Tuning.TraceTimed == 0 {
		t.Errorf("metrics report %d trace recordings and %d timed runs after a model build",
			m.Tuning.TraceRecords, m.Tuning.TraceTimed)
	}
	if m.Tuning.TraceShared == 0 || m.Tuning.TraceShared >= m.Tuning.TraceTimed {
		t.Errorf("metrics report %d of %d timed runs shared after a full-space build, want some but not all",
			m.Tuning.TraceShared, m.Tuning.TraceTimed)
	}
}

// TestReplayJobDedupDistinct: a replay job shares the plain phase job's
// model, but answers a different question: only the replay job's report
// carries the replay block.
func TestReplayJobDedupDistinct(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)

	phases := postJob(t, ts, serve.JobRequest{
		App: "mix", Scale: "tiny", Space: "dcache",
		Phases: true, IntervalInstructions: 20_000,
	})
	replay := postJob(t, ts, serve.JobRequest{
		App: "mix", Scale: "tiny", Space: "dcache",
		Phases: true, IntervalInstructions: 20_000, Replay: true,
	})
	phasesSt := waitDone(t, ts, phases.ID)
	replaySt := waitDone(t, ts, replay.ID)
	if phasesSt.PhaseResult == nil || replaySt.PhaseResult == nil {
		t.Fatal("phase results missing")
	}
	if phasesSt.PhaseResult.Replay != nil {
		t.Error("plain phase job gained a replay block")
	}
	if replaySt.PhaseResult.Replay == nil {
		t.Error("replay job lost its replay block")
	}
}

// TestReplayJobRequiresPhases: replay/online without phases is a 4xx,
// not a silently ignored flag.
func TestReplayJobRequiresPhases(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)
	for _, req := range []serve.JobRequest{
		{App: "mix", Scale: "tiny", Replay: true},
		{App: "mix", Scale: "tiny", Online: true},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("replay without phases returned %d, want 400", resp.StatusCode)
		}
	}
}
