package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/measure"
	"liquidarch/internal/serve"
	"liquidarch/internal/workload"
)

func newTestServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(serve.Options{Workers: 2, Provider: measure.NewCache(measure.Simulator{}, 256)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req serve.JobRequest) serve.JobStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJob(t *testing.T, ts *httptest.Server, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitClient bounds a whole wait, stream included, at two minutes.
var waitClient = &http.Client{Timeout: 2 * time.Minute}

// follow opens the job's ndjson status stream and returns a function
// that reads it to the terminal snapshot. The stream holds the job
// record, so once it is open a retention sweep dropping the finished
// job cannot strand the wait: open it while the job is still live.
func follow(t *testing.T, ts *httptest.Server, id string) func() serve.JobStatus {
	t.Helper()
	resp, err := waitClient.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /v1/jobs/%s/stream: status %d", id, resp.StatusCode)
	}
	return func() serve.JobStatus {
		t.Helper()
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var st serve.JobStatus
			if err := dec.Decode(&st); err != nil {
				t.Fatalf("job %s did not finish: %v", id, err)
			}
			if st.Terminal() {
				return st
			}
		}
	}
}

// waitDone follows a job that is still in the table to its terminal
// snapshot.
func waitDone(t *testing.T, ts *httptest.Server, id string) serve.JobStatus {
	t.Helper()
	return follow(t, ts, id)()
}

// TestTuneOverHTTPMatchesCLI is the end-to-end acceptance test: a job
// tuned over HTTP must select exactly the configuration the in-process
// tuner (and therefore the autoarch CLI) selects.
func TestTuneOverHTTPMatchesCLI(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)

	w1, w2 := 100.0, 1.0
	st := postJob(t, ts, serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache", W1: &w1, W2: &w2,
	})
	if st.State != serve.StateQueued && st.State != serve.StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	st = waitDone(t, ts, st.ID)
	if st.State != serve.StateDone {
		t.Fatalf("job state = %s, error = %s", st.State, st.Error)
	}
	if st.Result == nil {
		t.Fatal("done job has no result")
	}

	// The same tuning, in process.
	rep, err := core.NewSession(core.SessionOptions{}).Tune(context.Background(), core.Request{
		App:            "arith",
		Scale:          workload.Tiny,
		Space:          config.DcacheGeometrySpace(),
		Weights:        core.Weights{W1: w1, W2: w2},
		SkipValidation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	model, rec := rep.Artifacts.Model, rep.Artifacts.Recommendation
	if got, want := st.Result.Recommendation.Config, rec.Config.String(); got != want {
		t.Errorf("HTTP-tuned config:\n%s\nCLI-tuned config:\n%s", got, want)
	}
	if got, want := strings.Join(st.Result.Recommendation.Changes, " "), strings.Join(rec.Changes, " "); got != want {
		t.Errorf("HTTP changes %q, CLI changes %q", got, want)
	}
	if st.Result.Base.Cycles != model.BaseCycles {
		t.Errorf("HTTP base cycles %d, CLI %d", st.Result.Base.Cycles, model.BaseCycles)
	}
}

// TestStreamDeliversTerminalState exercises the ndjson status stream.
func TestStreamDeliversTerminalState(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)
	st := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var last serve.JobStatus
	states := []string{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		states = append(states, last.State)
	}
	if !last.Terminal() {
		t.Fatalf("stream ended in non-terminal state %s (saw %v)", last.State, states)
	}
	if last.State != serve.StateDone {
		t.Fatalf("job failed: %s (states %v)", last.Error, states)
	}
	if last.Result == nil {
		t.Error("terminal stream snapshot has no result")
	}
}

// TestJobsShareOneCache verifies the scheduler's whole point: two jobs
// for the same (app, scale, space) share measurements through the one
// provider, so the second job is nearly all cache hits.
func TestJobsShareOneCache(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t)
	first := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	waitDone(t, ts, first.ID)
	missesAfterFirst := s.Cache().Stats().Misses

	second := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	st := waitDone(t, ts, second.ID)
	if st.State != serve.StateDone {
		t.Fatalf("second job: %s %s", st.State, st.Error)
	}
	stats := s.Cache().Stats()
	if stats.Misses != missesAfterFirst {
		t.Errorf("second identical job added %d cache misses, want 0", stats.Misses-missesAfterFirst)
	}
	if stats.Hits == 0 {
		t.Error("no cache hits after two identical jobs")
	}
}

// TestCancelQueuedJob covers DELETE on a job that never started.
func TestCancelQueuedJob(t *testing.T) {
	t.Parallel()
	// One worker, and occupy it with a long job so the second queues.
	s := serve.New(serve.Options{Workers: 1, Provider: measure.NewCache(measure.Simulator{}, 256)})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	blocker := postJob(t, ts, serve.JobRequest{App: "blastn", Scale: "tiny"})
	victim := postJob(t, ts, serve.JobRequest{App: "drr", Scale: "tiny"})

	reqURL := ts.URL + "/v1/jobs/" + victim.ID
	httpReq, _ := http.NewRequest(http.MethodDelete, reqURL, nil)
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != serve.StateCancelled && !st.Terminal() {
		// The scheduler may have started it already on a fast machine;
		// cancellation of a running job resolves asynchronously.
		st = waitDone(t, ts, victim.ID)
	}
	if st.State == serve.StateDone {
		t.Errorf("cancelled job still completed")
	}
	waitDone(t, ts, blocker.ID)
}

// TestMetricsEndpoint sanity-checks the counters document.
func TestMetricsEndpoint(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)
	st := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Cache == nil {
		t.Fatal("metrics missing cache stats")
	}
	if m.Cache.Misses == 0 {
		t.Error("cache misses = 0 after a tuning job")
	}
	if m.Cache.Capacity != 256 {
		t.Errorf("cache capacity = %d, want 256", m.Cache.Capacity)
	}
	if m.Jobs[serve.StateDone] == 0 {
		t.Error("metrics count no done jobs")
	}
	if m.Pool.EngineLimit <= 0 {
		t.Error("pool metrics missing engine limit")
	}
}

// TestBadRequests covers the 4xx paths.
func TestBadRequests(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)
	for _, tc := range []serve.JobRequest{
		{App: "nope"},
		{App: "arith", Scale: "huge"},
		{App: "arith", Space: "weird"},
	} {
		body, _ := json.Marshal(tc)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %+v: status %d, want 400", tc, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET missing job: status %d, want 404", resp.StatusCode)
	}
}

// TestPersistentProviderServesRestart drives the daemon's persistence
// story end to end: a second server over the same store directory answers
// a repeated job without a single new simulation.
func TestPersistentProviderServesRestart(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	req := serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"}

	run := func() (measure.CacheStats, serve.JobStatus) {
		store, err := measure.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache := measure.NewCache(measure.NewPersistent(measure.Simulator{}, store), 256)
		s := serve.New(serve.Options{Workers: 1, Provider: cache})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		st := postJob(t, ts, req)
		st = waitDone(t, ts, st.ID)
		return cache.Stats(), st
	}

	_, st1 := run()
	if st1.State != serve.StateDone {
		t.Fatalf("first run: %s %s", st1.State, st1.Error)
	}
	store, _ := measure.NewStore(dir)
	if store.Len() == 0 {
		t.Fatal("store empty after first run")
	}

	_, st2 := run()
	if st2.State != serve.StateDone {
		t.Fatalf("second run: %s %s", st2.State, st2.Error)
	}
	if st1.Result.Recommendation.Config != st2.Result.Recommendation.Config {
		t.Errorf("restart changed the recommendation:\n%s\nvs\n%s",
			st1.Result.Recommendation.Config, st2.Result.Recommendation.Config)
	}
	if st1.Result.Base.Cycles != st2.Result.Base.Cycles {
		t.Errorf("restart changed base cycles: %d vs %d", st1.Result.Base.Cycles, st2.Result.Base.Cycles)
	}
}
