package serve_test

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"liquidarch/internal/serve"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden files")

func getMetrics(t *testing.T, ts *httptest.Server) serve.Metrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestModelLayerSharesBuildsAcrossWeights is the shared-model-layer
// acceptance test at the daemon boundary: a second job for the same app
// and space under different weights completes with zero new simulations
// (the measurement cache) and zero new model builds (the session's
// model layer), both proven through /v1/metrics.
func TestModelLayerSharesBuildsAcrossWeights(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)

	w1, w2 := 100.0, 1.0
	first := postJob(t, ts, serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache", W1: &w1, W2: &w2,
	})
	if st := waitDone(t, ts, first.ID); st.State != serve.StateDone {
		t.Fatalf("first job: %s %s", st.State, st.Error)
	}
	m1 := getMetrics(t, ts)
	if m1.Models == nil {
		t.Fatal("metrics missing the models block")
	}
	if m1.Models.Builds != 1 || m1.Models.Misses != 1 {
		t.Fatalf("after first job: models %+v, want 1 build / 1 miss", m1.Models)
	}

	// Same app and space, different weights: a distinct job, but the
	// same model identity.
	rw1, rw2 := 1.0, 100.0
	second := postJob(t, ts, serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache", W1: &rw1, W2: &rw2,
	})
	st := waitDone(t, ts, second.ID)
	if st.State != serve.StateDone {
		t.Fatalf("second job: %s %s", st.State, st.Error)
	}
	m2 := getMetrics(t, ts)
	if m2.Models.Builds != 1 {
		t.Errorf("second weighting rebuilt the model: %d builds", m2.Models.Builds)
	}
	if m2.Models.Hits < 1 {
		t.Errorf("model layer hits = %d, want >= 1", m2.Models.Hits)
	}
	if m2.Cache == nil || m1.Cache == nil {
		t.Fatal("metrics missing cache stats")
	}
	if d := m2.Cache.Misses - m1.Cache.Misses; d != 0 {
		t.Errorf("second weighting ran %d new simulations, want 0", d)
	}
	if st.Result == nil || len(st.Result.Recommendation.Changes) == 0 {
		t.Error("second job's result incomplete")
	}
	if st.Result.Weights.W2 != 100 {
		t.Errorf("second job solved under %+v, want its own weights", st.Result.Weights)
	}
}

// TestV1ResultGoldens locks the v1 wire format byte-for-byte: the
// result document of a finished plain job and the phase_result of a
// finished phase job. The plain document is the same serialization the
// autoarch CLI golden locks — one Report shape across every surface.
func TestV1ResultGoldens(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)

	check := func(name string, req serve.JobRequest) {
		st := postJob(t, ts, req)
		st = waitDone(t, ts, st.ID)
		if st.State != serve.StateDone {
			t.Fatalf("%s job: %s %s", name, st.State, st.Error)
		}
		result := st.Result
		if req.Phases {
			result = st.PhaseResult
		}
		if result == nil {
			t.Fatalf("%s job has no result", name)
		}
		got, err := result.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", name+".golden")
		if *updateGoldens {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("reading golden (run with -update to regenerate): %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s v1 result drifted from golden %s\ngot:\n%s\nwant:\n%s", name, golden, got, want)
		}
	}

	w1, w2 := 100.0, 1.0
	check("v1_arith_tiny_dcache", serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache", W1: &w1, W2: &w2,
	})
	check("v1_blastn_tiny_dcache_phases", serve.JobRequest{
		App: "blastn", Scale: "tiny", Space: "dcache",
		Phases: true, IntervalInstructions: 20_000,
	})
}
