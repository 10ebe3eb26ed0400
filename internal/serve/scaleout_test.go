package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/measure"
	"liquidarch/internal/platform"
	"liquidarch/internal/serve"
)

// countingProvider counts the measurements that reach the real
// simulator — the "simulations actually run" observable the dedup and
// replica tests assert on.
type countingProvider struct {
	inner measure.Provider
	calls atomic.Int64
}

func (c *countingProvider) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	c.calls.Add(1)
	return c.inner.Measure(ctx, prog, cfg, opts)
}

// gatedProvider blocks every measurement until the gate closes (or the
// measurement's context dies), so a test can hold a flight open while it
// submits duplicates or cancels passengers.
type gatedProvider struct {
	inner measure.Provider
	gate  chan struct{}
}

func (g *gatedProvider) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.Measure(ctx, prog, cfg, opts)
}

// firstProgGate blocks measurements of the first program it ever sees
// (and only that program): it pins one job in the running state while
// jobs for other applications flow freely.
type firstProgGate struct {
	inner measure.Provider
	gate  chan struct{}
	prog  atomic.Pointer[asm.Program]
}

func (g *firstProgGate) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	if g.prog.CompareAndSwap(nil, prog) || g.prog.Load() == prog {
		select {
		case <-g.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.inner.Measure(ctx, prog, cfg, opts)
}

func metricsOf(t *testing.T, ts *httptest.Server) serve.Metrics {
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

func cancelJob(t *testing.T, ts *httptest.Server, id string) serve.JobStatus {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDedupIdenticalJobsShareOneFlight submits the same request twice
// while the first execution is held open: the second must attach to the
// first's flight, both must finish with identical results, and the
// daemon must record exactly one dedup hit.
func TestDedupIdenticalJobsShareOneFlight(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	s := serve.New(serve.Options{
		Workers:  1,
		Provider: measure.NewCache(&gatedProvider{inner: measure.Simulator{}, gate: gate}, 256),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	req := serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"}
	a := postJob(t, ts, req)
	b := postJob(t, ts, req)
	if m := metricsOf(t, ts); m.Scheduler.Deduped != 1 || m.Scheduler.Flights != 1 {
		t.Fatalf("while gated: deduped %d flights %d, want 1 and 1",
			m.Scheduler.Deduped, m.Scheduler.Flights)
	}
	close(gate)

	sa := waitDone(t, ts, a.ID)
	sb := waitDone(t, ts, b.ID)
	if sa.State != serve.StateDone || sb.State != serve.StateDone {
		t.Fatalf("states %s/%s, errors %q/%q", sa.State, sb.State, sa.Error, sb.Error)
	}
	if sa.Result.Recommendation.Config != sb.Result.Recommendation.Config {
		t.Errorf("deduped jobs disagree:\n%s\nvs\n%s",
			sa.Result.Recommendation.Config, sb.Result.Recommendation.Config)
	}
	// One flight means one start instant shared by both passengers.
	if sa.Started == nil || sb.Started == nil || !sa.Started.Equal(*sb.Started) {
		t.Errorf("deduped jobs have different start times: %v vs %v", sa.Started, sb.Started)
	}
	m := metricsOf(t, ts)
	if m.Scheduler.Deduped != 1 {
		t.Errorf("deduped counter = %d, want 1", m.Scheduler.Deduped)
	}
	if m.Scheduler.Submitted != 2 {
		t.Errorf("submitted counter = %d, want 2", m.Scheduler.Submitted)
	}
}

// TestDedupStreamsBothClients verifies both passengers of one flight can
// stream the shared progress to a terminal state.
func TestDedupStreamsBothClients(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	s := serve.New(serve.Options{
		Workers:  1,
		Provider: measure.NewCache(&gatedProvider{inner: measure.Simulator{}, gate: gate}, 256),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	req := serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"}
	a := postJob(t, ts, req)
	b := postJob(t, ts, req)
	close(gate)

	for _, id := range []string{a.ID, b.ID} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		var last serve.JobStatus
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatalf("bad stream line for %s: %v", id, err)
			}
		}
		resp.Body.Close()
		if last.State != serve.StateDone || last.Result == nil {
			t.Fatalf("stream for %s ended %s (result %v)", id, last.State, last.Result != nil)
		}
	}
}

// TestDedupCancelOneOtherCompletes is the cancellation contract: one
// passenger leaving must not take the flight down.
func TestDedupCancelOneOtherCompletes(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	s := serve.New(serve.Options{
		Workers:  1,
		Provider: measure.NewCache(&gatedProvider{inner: measure.Simulator{}, gate: gate}, 256),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	req := serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"}
	a := postJob(t, ts, req)
	b := postJob(t, ts, req)

	st := cancelJob(t, ts, a.ID)
	if st.State != serve.StateCancelled {
		t.Fatalf("cancelled job state %s", st.State)
	}
	close(gate)
	sb := waitDone(t, ts, b.ID)
	if sb.State != serve.StateDone || sb.Result == nil {
		t.Fatalf("surviving passenger: %s %q", sb.State, sb.Error)
	}
	// The cancelled job must stay cancelled even though its flight
	// completed.
	sa := getJob(t, ts, a.ID)
	if sa.State == serve.StateDone {
		t.Error("cancelled job was resurrected by the flight's completion")
	}
}

// TestDedupCancelAllStopsExecution cancels every passenger of a held
// flight: the execution must stop without a single simulation reaching
// the simulator, and a fresh identical submission must start a new
// flight rather than attach to the dying one.
func TestDedupCancelAllStopsExecution(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	counting := &countingProvider{inner: measure.Simulator{}}
	s := serve.New(serve.Options{
		Workers:  1,
		Provider: measure.NewCache(&gatedProvider{inner: counting, gate: gate}, 256),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	req := serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"}
	a := postJob(t, ts, req)
	b := postJob(t, ts, req)
	cancelJob(t, ts, a.ID)
	cancelJob(t, ts, b.ID)

	// The flight is unmapped the moment its last passenger leaves.
	if m := metricsOf(t, ts); m.Scheduler.Flights != 0 {
		t.Errorf("flights = %d right after cancel-all, want 0", m.Scheduler.Flights)
	}

	sa, sb := getJob(t, ts, a.ID), getJob(t, ts, b.ID)
	if sa.State != serve.StateCancelled || sb.State != serve.StateCancelled {
		t.Fatalf("states %s/%s, want cancelled/cancelled", sa.State, sb.State)
	}
	if n := counting.calls.Load(); n != 0 {
		t.Errorf("cancelled flight still ran %d simulations", n)
	}

	// A new identical request must get a fresh, live flight.
	close(gate)
	c := postJob(t, ts, req)
	if sc := waitDone(t, ts, c.ID); sc.State != serve.StateDone {
		t.Fatalf("post-cancel resubmission: %s %q", sc.State, sc.Error)
	}
	m := metricsOf(t, ts)
	if m.Jobs[serve.StateCancelled] != 2 {
		t.Errorf("cancelled job count = %d, want 2", m.Jobs[serve.StateCancelled])
	}
}

// TestRetentionDropsOldTerminalJobs bounds the job table by count and
// verifies the dropped counter.
func TestRetentionDropsOldTerminalJobs(t *testing.T) {
	t.Parallel()
	s := serve.New(serve.Options{Workers: 1, Provider: measure.NewCache(measure.Simulator{}, 256), RetainJobs: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// Five distinct requests (different weights → different dedup keys);
	// the shared measurement cache keeps reruns cheap.
	for i := 0; i < 5; i++ {
		w2 := float64(i + 1)
		st := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache", W2: &w2})
		if got := waitDone(t, ts, st.ID); got.State != serve.StateDone {
			t.Fatalf("job %d: %s %q", i, got.State, got.Error)
		}
	}

	jobs := s.Jobs()
	if len(jobs) > 2 {
		t.Fatalf("job table holds %d jobs, retention bound 2", len(jobs))
	}
	m := metricsOf(t, ts)
	if m.Scheduler.Dropped < 3 {
		t.Errorf("dropped counter = %d, want >= 3", m.Scheduler.Dropped)
	}
	// The survivors must be the newest submissions.
	for _, j := range jobs {
		if j.Request.W2 == nil || *j.Request.W2 < 4 {
			t.Errorf("retention kept an old job (%+v) over a newer one", j.Request)
		}
	}
}

// TestRetentionNeverDropsLiveJobs pins one job in the running state
// under the tightest possible retention: the running job must survive
// every sweep while terminal churn around it is dropped, then complete.
func TestRetentionNeverDropsLiveJobs(t *testing.T) {
	t.Parallel()
	// Each churn job samples its own run length, so it misses the
	// measurement cache and its hold keeps it live until its status
	// stream is open: a janitor sweep can then drop it only after the
	// wait holds its record.
	const churn = 3
	holds := map[uint64]chan struct{}{}
	for i := range churn {
		holds[churnSample(i)] = make(chan struct{})
	}
	gate := &firstProgGate{
		inner: &scriptedProvider{inner: measure.Simulator{}, holds: holds},
		gate:  make(chan struct{}),
	}
	s := serve.New(serve.Options{
		Workers:    2,
		Provider:   measure.NewCache(gate, 256),
		RetainJobs: 1,
		JobTTL:     time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// The pinned job: its program is the first the gate sees, so its
	// measurements block until release. Wait for the pin to take hold
	// before submitting churn (whose programs then pass freely).
	slow := postJob(t, ts, serve.JobRequest{App: "blastn", Scale: "tiny"})
	deadline := time.Now().Add(30 * time.Second)
	for gate.prog.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("pinned job never reached the provider")
		}
		time.Sleep(time.Millisecond)
	}

	// Churn terminal jobs past the pinned one.
	for i := 0; i < churn; i++ {
		w2 := float64(i + 1)
		st := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache", W2: &w2, SampleInstructions: churnSample(i)})
		wait := follow(t, ts, st.ID)
		close(holds[churnSample(i)])
		wait()
		time.Sleep(5 * time.Millisecond) // let the TTL lapse between churns
	}
	s.Jobs() // force a sweep with the TTL long expired

	st := getJob(t, ts, slow.ID)
	if st.ID == "" {
		t.Fatal("running job was dropped by retention")
	}
	if st.State != serve.StateRunning {
		t.Fatalf("pinned job state %s, want running (error %q)", st.State, st.Error)
	}
	wait := follow(t, ts, slow.ID)
	close(gate.gate)
	if got := wait(); got.State != serve.StateDone {
		t.Fatalf("pinned job: %s %q", got.State, got.Error)
	}
}

// churnSample is the run length of TestRetentionNeverDropsLiveJobs's
// i-th churn job.
func churnSample(i int) uint64 { return 20_000 + 1_000*uint64(i) }

// scriptedProvider scripts measurement outcomes by the request's sample
// length, so one server can drive every terminal path: a nonzero fail
// always errors, and each sample in holds blocks until its channel
// closes (or the measurement's context dies). Other samples pass
// through.
type scriptedProvider struct {
	inner measure.Provider
	fail  uint64
	holds map[uint64]chan struct{}
}

func (p *scriptedProvider) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	if p.fail != 0 && opts.SampleInstructions == p.fail {
		return nil, errors.New("scripted measurement failure")
	}
	if gate, ok := p.holds[opts.SampleInstructions]; ok {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return p.inner.Measure(ctx, prog, cfg, opts)
}

// waitLeftQueue spins until the job has left the queued state.
func waitLeftQueue(t *testing.T, s *serve.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished while live", id)
		}
		if st.State != serve.StateQueued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		runtime.Gosched()
	}
}

// TestRetentionQueueContract pins what the finish-ordered retention
// queue must keep: the count bound drops the earliest-finished job (not
// the earliest-submitted), and every way a job can end enters it
// exactly once, so the table never outgrows the bound and the dropped
// counter is exact.
func TestRetentionQueueContract(t *testing.T) {
	t.Parallel()

	t.Run("out-of-order finish", func(t *testing.T) {
		t.Parallel()
		gate := &firstProgGate{inner: measure.Simulator{}, gate: make(chan struct{})}
		s := serve.New(serve.Options{Workers: 2, Provider: measure.NewCache(gate, 256), RetainJobs: 2})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()

		// The first submission is pinned running while two later ones
		// finish, so it finishes last.
		first := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
		deadline := time.Now().Add(30 * time.Second)
		for gate.prog.Load() == nil {
			if time.Now().After(deadline) {
				t.Fatal("pinned job never reached the provider")
			}
			time.Sleep(time.Millisecond)
		}
		var later []string
		for i := 0; i < 2; i++ {
			st := postJob(t, ts, serve.JobRequest{App: "drr", Scale: "tiny", Space: "dcache", W2: fptr(float64(i + 1))})
			if got := waitDone(t, ts, st.ID); got.State != serve.StateDone {
				t.Fatalf("job %s: %s %q", st.ID, got.State, got.Error)
			}
			later = append(later, st.ID)
		}
		close(gate.gate)
		if got := waitDone(t, ts, first.ID); got.State != serve.StateDone {
			t.Fatalf("pinned job: %s %q", got.State, got.Error)
		}

		// Finish order is later[0], later[1], first: the sweep must drop
		// later[0] and keep the earliest-submitted job.
		var kept []string
		for _, j := range s.Jobs() {
			kept = append(kept, j.ID)
		}
		if want := []string{first.ID, later[1]}; !slices.Equal(kept, want) {
			t.Fatalf("retained %v, want %v (the earliest-finished %s dropped)", kept, want, later[0])
		}
		if d := s.MetricsSnapshot().Scheduler.Dropped; d != 1 {
			t.Errorf("dropped = %d, want 1", d)
		}
	})

	t.Run("every terminal path retires once", func(t *testing.T) {
		t.Parallel()
		const (
			failSample = 30_000
			pairSample = 40_000
			holdSample = 50_000
			retain     = 1
		)
		prov := &scriptedProvider{
			inner: measure.Simulator{},
			fail:  failSample,
			holds: map[uint64]chan struct{}{pairSample: make(chan struct{}), holdSample: make(chan struct{})},
		}
		s := serve.New(serve.Options{
			Workers:    1,
			QueueDepth: 1,
			Provider:   measure.NewCache(prov, 1024),
			RetainJobs: retain,
		})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		req := func(w2 float64, sample uint64) serve.JobRequest {
			return serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache", W2: fptr(w2), SampleInstructions: sample}
		}
		expect := func(st serve.JobStatus, state string) {
			t.Helper()
			if st.State != state {
				t.Fatalf("job %s: %s %q, want %s", st.ID, st.State, st.Error, state)
			}
		}

		// Done, failed, and a batch.
		expect(waitDone(t, ts, postJob(t, ts, req(1, 0)).ID), serve.StateDone)
		expect(waitDone(t, ts, postJob(t, ts, req(1, failSample)).ID), serve.StateFailed)
		batch := postBatch(t, ts, serve.BatchRequest{
			JobRequest: req(1, 0),
			Weightings: []serve.Weighting{{W1: 100, W2: 1}, {W1: 1, W2: 100}},
		})
		expect(waitDone(t, ts, batch.ID), serve.StateDone)

		// Two passengers of one flight, both done by one broadcast.
		p1 := postJob(t, ts, req(1, pairSample))
		waitLeftQueue(t, s, p1.ID)
		p2 := postJob(t, ts, req(1, pairSample))
		close(prov.holds[pairSample])
		expect(waitDone(t, ts, p1.ID), serve.StateDone)
		expect(waitDone(t, ts, p2.ID), serve.StateDone)

		// Cancels racing the final broadcast of a warm (sub-millisecond)
		// flight, after yielding to the worker 0–4 times: either may
		// win, the job must end once.
		outcomes := map[string]int{}
		for i := 0; i < 20; i++ {
			st, err := s.Submit(req(float64(10+i), 0))
			if err != nil {
				t.Fatal(err)
			}
			waitLeftQueue(t, s, st.ID)
			for range i % 5 {
				runtime.Gosched()
			}
			end, err := s.Cancel(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !end.Terminal() {
				t.Fatalf("job %s %s after cancel", st.ID, end.State)
			}
			outcomes[end.State]++
		}
		t.Logf("cancel/broadcast race outcomes: %v", outcomes)

		// Cancelled while running, cancelled while queued, and a
		// queue-full rejection behind them.
		running := postJob(t, ts, req(2, holdSample))
		waitLeftQueue(t, s, running.ID)
		queued := postJob(t, ts, req(3, 0))
		if code := postJobStatus(t, ts, req(4, 0)); code != http.StatusServiceUnavailable {
			t.Fatalf("submission past the queue: status %d, want 503", code)
		}
		expect(cancelJob(t, ts, queued.ID), serve.StateCancelled)
		expect(cancelJob(t, ts, running.ID), serve.StateCancelled)

		jobs := s.Jobs()
		live := 0
		for _, j := range jobs {
			if !j.Terminal() {
				live++
			}
		}
		if len(jobs) > retain+live {
			t.Errorf("table holds %d jobs (%d live), bound %d + live", len(jobs), live, retain)
		}
		sched := s.MetricsSnapshot().Scheduler
		if want := sched.Submitted - uint64(len(jobs)-live); sched.Dropped != want {
			t.Errorf("dropped = %d, want %d (%d submitted, %d retained)",
				sched.Dropped, want, sched.Submitted, len(jobs)-live)
		}
	})
}

// TestTwoReplicasShareOneStore is the scale-out acceptance test: two
// daemons mounting one -cache-dir serve the same JobRequest with exactly
// one set of simulations between them, return identical recommendations,
// and both the job tables and the shared store end up within their
// configured retention/GC bounds.
func TestTwoReplicasShareOneStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	req := serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"}
	gc := measure.GCPolicy{MaxBytes: 1 << 20, MaxAge: 24 * time.Hour}

	type replica struct {
		counting *countingProvider
		store    *measure.Store
		server   *serve.Server
		ts       *httptest.Server
	}
	newReplica := func() replica {
		store, err := measure.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		counting := &countingProvider{inner: measure.Simulator{}}
		persistent := measure.NewPersistent(counting, store).EnableGC(gc, 8)
		s := serve.New(serve.Options{
			Workers:    1,
			Provider:   measure.NewCache(persistent, 256),
			Store:      store,
			RetainJobs: 4,
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		return replica{counting, store, s, ts}
	}

	a, b := newReplica(), newReplica()

	// Replica A does the work…
	sa := waitDone(t, a.ts, postJob(t, a.ts, req).ID)
	if sa.State != serve.StateDone {
		t.Fatalf("replica A: %s %q", sa.State, sa.Error)
	}
	simulations := a.counting.calls.Load()
	if simulations == 0 {
		t.Fatal("replica A ran no simulations")
	}

	// …and replica B replays it from the shared directory.
	sb := waitDone(t, b.ts, postJob(t, b.ts, req).ID)
	if sb.State != serve.StateDone {
		t.Fatalf("replica B: %s %q", sb.State, sb.Error)
	}
	if n := b.counting.calls.Load(); n != 0 {
		t.Errorf("replica B ran %d simulations, want 0 (shared store replay)", n)
	}
	if sa.Result.Recommendation.Config != sb.Result.Recommendation.Config {
		t.Errorf("replicas disagree:\n%s\nvs\n%s",
			sa.Result.Recommendation.Config, sb.Result.Recommendation.Config)
	}
	if sa.Result.Base.Cycles != sb.Result.Base.Cycles {
		t.Errorf("replicas disagree on base cycles: %d vs %d",
			sa.Result.Base.Cycles, sb.Result.Base.Cycles)
	}

	// Bounds: each table within retention, the shared store within GC.
	for name, r := range map[string]replica{"A": a, "B": b} {
		if n := len(r.server.Jobs()); n > 4 {
			t.Errorf("replica %s retains %d jobs, bound 4", name, n)
		}
	}
	res := a.store.GC(gc)
	if res.Bytes > gc.MaxBytes {
		t.Errorf("shared store at %d bytes, bound %d", res.Bytes, gc.MaxBytes)
	}
	// The store metrics surface on both replicas' /v1/metrics.
	for name, r := range map[string]replica{"A": a, "B": b} {
		m := metricsOf(t, r.ts)
		if m.Store == nil {
			t.Fatalf("replica %s metrics missing store stats", name)
		}
		if m.Store.Entries == 0 {
			t.Errorf("replica %s store stats report an empty store", name)
		}
	}
}
