package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"liquidarch/internal/fabric"
	"liquidarch/internal/measure"
	"liquidarch/internal/serve"
)

// newFabricWorker stands up a worker-role daemon: a serve.Server whose
// only fabric job is answering POST /v1/measure through its own counting
// provider. Returns the counter (simulations this worker actually ran)
// and the worker's HTTP endpoint.
func newFabricWorker(t *testing.T) (*countingProvider, *httptest.Server) {
	t.Helper()
	counting := &countingProvider{inner: measure.Simulator{}}
	w := fabric.NewWorker(measure.NewCache(counting, 256), 4)
	s := serve.New(serve.Options{Workers: 1, Worker: w, Provider: measure.NewCache(measure.Simulator{}, 16)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return counting, ts
}

// newCoordinator stands up a coordinator-role daemon whose provider
// stack is Cache(Remote(registry, fallback=counting(Simulator))) — the
// same shape cmd/autoarchd wires with -fabric. Returns the fabric
// Remote, the coordinator's local-simulation counter, and the endpoint.
func newCoordinator(t *testing.T, opts fabric.RemoteOptions) (*fabric.Remote, *countingProvider, *httptest.Server) {
	t.Helper()
	local := &countingProvider{inner: measure.Simulator{}}
	remote := fabric.NewRemote(fabric.NewRegistry(), local, opts)
	s := serve.New(serve.Options{
		Workers:  1,
		Provider: measure.NewCache(remote, 1024),
		Fabric:   remote,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return remote, local, ts
}

// registerWorker registers a worker with the coordinator over the wire
// (POST /v1/workers), exactly as the heartbeat loop does.
func registerWorker(t *testing.T, coord *httptest.Server, reg fabric.Registration) {
	t.Helper()
	body, _ := json.Marshal(reg)
	resp, err := http.Post(coord.URL+"/v1/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST /v1/workers: status %d", resp.StatusCode)
	}
}

func postBatch(t *testing.T, ts *httptest.Server, req serve.BatchRequest) serve.JobStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/batch: status %d", resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// postJobStatus submits a job and returns the HTTP status code without
// failing on non-202 — for admission-control assertions.
func postJobStatus(t *testing.T, ts *httptest.Server, req serve.JobRequest) int {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func fptr(v float64) *float64 { return &v }

// TestFabricTwoWorkersShardSweep is the headline distributed e2e: a
// coordinator with two registered workers tunes the full 52-variable
// space, every measurement dispatches remotely (zero coordinator-local
// simulations, zero fallbacks), and the consistent-hash sharding splits
// the sweep so each worker simulates a strict, non-empty subset whose
// counts sum to the whole.
func TestFabricTwoWorkersShardSweep(t *testing.T) {
	t.Parallel()
	w1Count, w1 := newFabricWorker(t)
	w2Count, w2 := newFabricWorker(t)
	_, local, coord := newCoordinator(t, fabric.RemoteOptions{Backoff: time.Millisecond})
	registerWorker(t, coord, fabric.Registration{ID: "w1", URL: w1.URL})
	registerWorker(t, coord, fabric.Registration{ID: "w2", URL: w2.URL})

	st := postJob(t, coord, serve.JobRequest{App: "arith", Scale: "tiny", Space: "full"})
	st = waitDone(t, coord, st.ID)
	if st.State != serve.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}

	m := metricsOf(t, coord)
	if m.Fabric == nil || m.Fabric.Remote == nil {
		t.Fatal("coordinator metrics have no fabric.remote section")
	}
	r := m.Fabric.Remote
	if r.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0 with both workers live", r.Fallbacks)
	}
	if got := local.calls.Load(); got != 0 {
		t.Fatalf("coordinator ran %d local simulations, want 0", got)
	}
	if r.Dispatched == 0 || r.RemoteHits != r.Dispatched {
		t.Fatalf("dispatched %d remote hits %d, want equal and > 0", r.Dispatched, r.RemoteHits)
	}
	if r.LiveWorkers != 2 {
		t.Fatalf("live workers = %d, want 2", r.LiveWorkers)
	}

	// Each worker simulated a strict non-empty subset of the sweep, and
	// together they account for every dispatched measurement.
	served := [2]uint64{}
	for i, ts := range []*httptest.Server{w1, w2} {
		wm := metricsOf(t, ts)
		if wm.Fabric == nil || wm.Fabric.Worker == nil {
			t.Fatalf("worker %d metrics have no fabric.worker section", i+1)
		}
		served[i] = wm.Fabric.Worker.Served
		if served[i] == 0 || served[i] >= r.Dispatched {
			t.Fatalf("worker %d served %d of %d, want a strict non-empty subset",
				i+1, served[i], r.Dispatched)
		}
	}
	if sum := served[0] + served[1]; sum != r.Dispatched {
		t.Fatalf("worker served %d + %d = %d, want %d dispatched", served[0], served[1],
			served[0]+served[1], r.Dispatched)
	}
	// The shards stayed sticky: the configs each worker measured reached
	// its cache's counting provider exactly once apiece.
	if w1Count.calls.Load() == 0 || w2Count.calls.Load() == 0 {
		t.Fatalf("worker simulations %d / %d, want both > 0",
			w1Count.calls.Load(), w2Count.calls.Load())
	}
}

// TestFabricWorkerDeathFallsBack kills one of two workers: the
// coordinator must retry its shard, sideline the dead worker, answer
// that shard locally, and still converge — loudly (retries, fallbacks,
// and the mark-down all visible in /v1/metrics).
func TestFabricWorkerDeathFallsBack(t *testing.T) {
	t.Parallel()
	_, live := newFabricWorker(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	_, local, coord := newCoordinator(t, fabric.RemoteOptions{Retries: 1, Backoff: time.Millisecond})
	registerWorker(t, coord, fabric.Registration{ID: "w-live", URL: live.URL})
	registerWorker(t, coord, fabric.Registration{ID: "w-dead", URL: deadURL})

	st := postJob(t, coord, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	st = waitDone(t, coord, st.ID)
	if st.State != serve.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}

	r := metricsOf(t, coord).Fabric.Remote
	if r.Retries == 0 || r.Fallbacks == 0 || r.MarkedDown == 0 {
		t.Fatalf("retries %d fallbacks %d marked down %d, want all > 0 after a worker death",
			r.Retries, r.Fallbacks, r.MarkedDown)
	}
	if local.calls.Load() == 0 {
		t.Fatal("dead worker's shard never reached the coordinator's local provider")
	}
	if r.RemoteHits == 0 {
		t.Fatal("surviving worker served nothing")
	}
	if r.LiveWorkers != 1 {
		t.Fatalf("live workers = %d, want 1 after mark-down", r.LiveWorkers)
	}
}

// TestFabricAllWorkersDownFallsBackLocal registers a fleet that is
// entirely unreachable: the tune must complete on the coordinator's
// local provider with every substitution counted — degraded, never
// silent.
func TestFabricAllWorkersDownFallsBackLocal(t *testing.T) {
	t.Parallel()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	_, local, coord := newCoordinator(t, fabric.RemoteOptions{Retries: 1, Backoff: time.Millisecond})
	registerWorker(t, coord, fabric.Registration{ID: "w-dead", URL: deadURL})

	st := postJob(t, coord, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	st = waitDone(t, coord, st.ID)
	if st.State != serve.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}

	r := metricsOf(t, coord).Fabric.Remote
	if r.Fallbacks == 0 {
		t.Fatal("no fallbacks counted with the whole fleet down")
	}
	if r.RemoteHits != 0 {
		t.Fatalf("remote hits = %d from an unreachable fleet", r.RemoteHits)
	}
	if local.calls.Load() == 0 {
		t.Fatal("coordinator ran no local simulations")
	}
}

// TestWorkerEndpointRegistersAndExpires drives the registration
// endpoint directly: a worker registered with a short TTL is live until
// it stops heartbeating, then the sweep drops it. The TTL is long enough
// for the liveness check's loopback GET on a loaded host; the expiry is
// then awaited by polling, not by a fixed sleep.
func TestWorkerEndpointRegistersAndExpires(t *testing.T) {
	t.Parallel()
	_, _, coord := newCoordinator(t, fabric.RemoteOptions{})
	registerWorker(t, coord, fabric.Registration{ID: "w-brief", URL: "http://127.0.0.1:1", TTLSeconds: 2})

	resp, err := http.Get(coord.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var workers []fabric.WorkerInfo
	if err := json.NewDecoder(resp.Body).Decode(&workers); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(workers) != 1 || !workers[0].Live {
		t.Fatalf("worker table %+v, want one live worker", workers)
	}

	deadline := time.Now().Add(time.Minute)
	for {
		r := metricsOf(t, coord).Fabric.Remote
		if r.LiveWorkers == 0 && r.Expired != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live %d expired %d after TTL, want 0 live and an expiry", r.LiveWorkers, r.Expired)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestBatchOneModelBuild submits a four-weighting sweep through
// POST /v1/batch: one flight, one model build, four solves, four
// reports in item order.
func TestBatchOneModelBuild(t *testing.T) {
	t.Parallel()
	s := serve.New(serve.Options{Workers: 1, Provider: measure.NewCache(measure.Simulator{}, 512)})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	req := serve.BatchRequest{
		JobRequest: serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache", Class: serve.ClassBulk},
		Weightings: []serve.Weighting{
			{W1: 1, W2: 0},
			{W1: 0.75, W2: 0.25},
			{W1: 0.5, W2: 0.5},
			{W1: 0, W2: 1},
		},
	}
	st := postBatch(t, ts, req)
	st = waitDone(t, ts, st.ID)
	if st.State != serve.StateDone {
		t.Fatalf("batch state %s: %s", st.State, st.Error)
	}
	if len(st.Results) != len(req.Weightings) {
		t.Fatalf("got %d results, want %d", len(st.Results), len(req.Weightings))
	}
	for i, rep := range st.Results {
		if rep == nil {
			t.Fatalf("result %d is nil", i)
		}
		if rep.Weights.W1 != req.Weightings[i].W1 || rep.Weights.W2 != req.Weightings[i].W2 {
			t.Fatalf("result %d weights %g:%g, want %g:%g", i,
				rep.Weights.W1, rep.Weights.W2, req.Weightings[i].W1, req.Weightings[i].W2)
		}
	}

	m := metricsOf(t, ts)
	if m.Models == nil || m.Models.Builds != 1 {
		t.Fatalf("models = %+v, want exactly 1 build for the whole sweep", m.Models)
	}
	if m.Models.Hits < uint64(len(req.Weightings)-1) {
		t.Fatalf("model hits = %d, want >= %d", m.Models.Hits, len(req.Weightings)-1)
	}
	if m.Scheduler.Batches != 1 {
		t.Fatalf("scheduler.batches = %d, want 1", m.Scheduler.Batches)
	}
}

// TestBatchPriorityInteractiveFirst holds a bulk batch open on the
// single scheduler worker, queues another bulk job and then an
// interactive one: the interactive job must start before the earlier-
// submitted bulk job.
func TestBatchPriorityInteractiveFirst(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	s := serve.New(serve.Options{
		Workers:  1,
		Provider: measure.NewCache(&gatedProvider{inner: measure.Simulator{}, gate: gate}, 512),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	running := postBatch(t, ts, serve.BatchRequest{
		JobRequest: serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache", Class: serve.ClassBulk},
		Weightings: []serve.Weighting{{W1: 1, W2: 0}, {W1: 0, W2: 1}},
	})
	// Wait for the batch to occupy the lone worker before queueing.
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts, running.ID).Started == nil {
		if time.Now().After(deadline) {
			t.Fatal("batch never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	bulk := postJob(t, ts, serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache", Class: serve.ClassBulk,
		W1: fptr(0.6), W2: fptr(0.4),
	})
	inter := postJob(t, ts, serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache",
		W1: fptr(0.7), W2: fptr(0.3),
	})
	if m := metricsOf(t, ts); m.Scheduler.BulkQueued != 1 || m.Scheduler.InteractiveQueued != 1 {
		t.Fatalf("queued bulk %d interactive %d, want 1 and 1",
			m.Scheduler.BulkQueued, m.Scheduler.InteractiveQueued)
	}

	close(gate)
	interDone := waitDone(t, ts, inter.ID)
	bulkDone := waitDone(t, ts, bulk.ID)
	if interDone.State != serve.StateDone || bulkDone.State != serve.StateDone {
		t.Fatalf("states %s / %s, want both done", interDone.State, bulkDone.State)
	}
	if !interDone.Started.Before(*bulkDone.Started) {
		t.Fatalf("interactive started %v, bulk started %v: interactive must preempt the earlier bulk job",
			interDone.Started, bulkDone.Started)
	}
}

// TestBulkAdmissionControl fills the bulk class's queue budget: the
// next bulk submission is refused with 503 while an interactive job is
// still admitted under its own budget.
func TestBulkAdmissionControl(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	s := serve.New(serve.Options{
		Workers:        1,
		QueueDepth:     8,
		BulkQueueDepth: 1,
		Provider:       measure.NewCache(&gatedProvider{inner: measure.Simulator{}, gate: gate}, 512),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	first := postJob(t, ts, serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache", Class: serve.ClassBulk,
		W1: fptr(1), W2: fptr(0),
	})
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts, first.ID).Started == nil {
		if time.Now().After(deadline) {
			t.Fatal("first bulk job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	queued := postJob(t, ts, serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache", Class: serve.ClassBulk,
		W1: fptr(0.9), W2: fptr(0.1),
	})
	if code := postJobStatus(t, ts, serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache", Class: serve.ClassBulk,
		W1: fptr(0.8), W2: fptr(0.2),
	}); code != http.StatusServiceUnavailable {
		t.Fatalf("third bulk job: status %d, want 503 past the bulk budget", code)
	}
	inter := postJob(t, ts, serve.JobRequest{
		App: "arith", Scale: "tiny", Space: "dcache",
		W1: fptr(0.7), W2: fptr(0.3),
	})

	close(gate)
	for _, id := range []string{first.ID, queued.ID, inter.ID} {
		if st := waitDone(t, ts, id); st.State != serve.StateDone {
			t.Fatalf("job %s state %s: %s", id, st.State, st.Error)
		}
	}
}
