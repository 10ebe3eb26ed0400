package serve_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/measure"
	"liquidarch/internal/serve"
)

// TestBatchOneModelBuild submits a four-weighting sweep through
// POST /v1/batch: one job, one model build, four solves, four
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

// TestOversizedRequestRejected posts bodies past serve.MaxRequestBytes
// to both submission routes: each is answered 413 while it is still
// being read, so no job is created and nothing is queued.
func TestOversizedRequestRejected(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t)
	before := s.MetricsSnapshot().Scheduler.Submitted

	apps := strings.Repeat(`"arith",`, serve.MaxRequestBytes/8)
	batch := `{"app":"arith","scale":"tiny","space":"dcache","apps":[` + apps + `"arith"]}`
	job := `{"app":"` + strings.Repeat("a", serve.MaxRequestBytes) + `"}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/batch", batch},
		{"/v1/jobs", job},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", tc.path, len(tc.body), resp.StatusCode)
		}
	}
	if got := s.MetricsSnapshot().Scheduler.Submitted; got != before {
		t.Errorf("scheduler.submitted %d -> %d: an oversized request was queued", before, got)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("%d jobs in the table after oversized requests, want 0", len(jobs))
	}
}
