package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/serve"
	"liquidarch/internal/workload"
)

// TestPhaseJobMatchesCLI is the phase-mode acceptance test: a phase job
// served over HTTP must produce byte-for-byte the core.Report the
// in-process tuner (and therefore `autoarch -phases -json`) produces.
func TestPhaseJobMatchesCLI(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)

	st := postJob(t, ts, serve.JobRequest{
		App: "blastn", Scale: "tiny", Space: "dcache",
		Phases: true, IntervalInstructions: 20_000,
	})
	st = waitDone(t, ts, st.ID)
	if st.State != serve.StateDone {
		t.Fatalf("job state = %s, error = %s", st.State, st.Error)
	}
	if st.Result != nil {
		t.Error("phase job should not carry a plain result")
	}
	if st.PhaseResult == nil {
		t.Fatal("done phase job has no phase result")
	}

	// The same tuning, in process.
	want, err := core.NewSession(core.SessionOptions{}).Tune(context.Background(), core.Request{
		App:     "blastn",
		Scale:   workload.Tiny,
		Space:   config.DcacheGeometrySpace(),
		Weights: core.Weights{W1: 100, W2: 1},
		Phases:  &core.PhaseOptions{IntervalInstructions: 20_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := st.PhaseResult.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("daemon phase report differs from in-process tuning:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	if st.PhaseResult.Phases == nil || st.PhaseResult.Phases.Trace == nil || st.PhaseResult.Phases.Trace.Phases == 0 {
		t.Error("phase result has no trace")
	}
}

// streamStatuses collects every ndjson snapshot of a job until it ends.
func streamStatuses(t *testing.T, ts *httptest.Server, id string) []serve.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []serve.JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var st serve.JobStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		out = append(out, st)
	}
	if len(out) == 0 {
		t.Fatal("empty stream")
	}
	return out
}

// checkProgress asserts a streamed job exposed monotonic k-of-N
// measurement progress reaching total.
func checkProgress(t *testing.T, statuses []serve.JobStatus, total int) {
	t.Helper()
	last := statuses[len(statuses)-1]
	if last.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", last.State, last.Error)
	}
	seen, prev := 0, 0
	for _, st := range statuses {
		if st.Progress == nil {
			continue
		}
		seen++
		if st.Progress.Total != total {
			t.Fatalf("progress total %d, want %d", st.Progress.Total, total)
		}
		if st.Progress.Done < prev {
			t.Fatalf("progress went backwards: %d after %d", st.Progress.Done, prev)
		}
		prev = st.Progress.Done
	}
	if seen == 0 {
		t.Fatal("no progress snapshots in the stream")
	}
	if prev != total {
		t.Errorf("final progress %d of %d", prev, total)
	}
}

// TestPlainJobStreamsMeasurementProgress: the ndjson stream of an
// ordinary tuning job carries per-measurement progress — base + one per
// variable + validation.
func TestPlainJobStreamsMeasurementProgress(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)
	st := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	statuses := streamStatuses(t, ts, st.ID)
	checkProgress(t, statuses, config.DcacheGeometrySpace().Len()+2)
}

// TestPhaseJobStreamsMeasurementProgress: phase jobs stream the same
// per-measurement progress (base + one per variable; no validation run).
func TestPhaseJobStreamsMeasurementProgress(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)
	st := postJob(t, ts, serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache",
		Phases: true, IntervalInstructions: 10_000,
	})
	statuses := streamStatuses(t, ts, st.ID)
	checkProgress(t, statuses, config.DcacheGeometrySpace().Len()+1)
}

// TestPhaseJobDedupDistinctFromPlain: a phase job must not coalesce with
// a plain job of the same app/scale/space, nor with a phase job of a
// different interval.
func TestPhaseJobDedupDistinctFromPlain(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)
	plain := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	phased := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache", Phases: true})
	other := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache", Phases: true, IntervalInstructions: 5_000})

	pst := waitDone(t, ts, plain.ID)
	fst := waitDone(t, ts, phased.ID)
	ost := waitDone(t, ts, other.ID)
	if pst.Result == nil || pst.PhaseResult != nil {
		t.Error("plain job result shape wrong")
	}
	if fst.PhaseResult == nil || fst.Result != nil {
		t.Error("phase job result shape wrong")
	}
	if ost.PhaseResult == nil {
		t.Fatal("second phase job has no result")
	}
	if fst.PhaseResult.Phases.IntervalInstructions == ost.PhaseResult.Phases.IntervalInstructions {
		t.Error("distinct intervals coalesced onto one flight")
	}
}
