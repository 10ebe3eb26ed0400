// Package serve is the autoarchd tuning service: an HTTP/JSON surface
// over the paper's technique. Clients submit tuning jobs (application,
// workload scale, decision space, objective weights); a bounded worker
// scheduler maps each JobRequest onto a core.Request and runs it
// through one shared core.Session, so concurrent jobs — and repeated
// jobs for the same application — reuse each other's simulated runs
// through the session's measurement provider AND each other's model
// builds through its shared model layer (a job differing only in
// weights performs zero new simulations and zero model builds; see
// models.{hits,misses,builds} under /v1/metrics). Results are
// core.Report documents, the same serialization `autoarch -json`
// prints; phase jobs (JobRequest.Phases) return the same document with
// the phases block, the `autoarch -phases -json` output. Running jobs
// stream per-measurement progress ("k of N") through their ndjson
// status.
//
// The scheduler is built for a long-lived, multi-replica deployment
// (DESIGN.md §14): each job is its own execution, terminal jobs are
// retained only up to a configured count/age, and the measurement store
// a fleet shares over one directory is swept by the measure layer's GC.
// Two identical jobs share their expensive work below the scheduler:
// the measurement cache and the session's model layer are both bounded
// singleflight LRUs (internal/memo), so within a process each
// measurement key is simulated once and each model key built once.
// Across replicas sharing a store nothing is coordinated unless the
// daemon opts into the claim lease; replicas racing one key both
// measure it and the atomic spill leaves one identical entry.
//
// API (all JSON):
//
//	POST   /v1/jobs          submit a JobRequest, returns the queued JobStatus
//	POST   /v1/batch         submit a BatchRequest (app × space × weighting
//	                         matrix); the expanded items run as ONE job
//	                         through one session batch, so a weight sweep
//	                         performs one model build and N solves
//	GET    /v1/jobs          list every job's JobStatus
//	GET    /v1/jobs/{id}     one job's JobStatus (with result when done)
//	GET    /v1/jobs/{id}/stream  ndjson stream of JobStatus snapshots
//	                             until the job reaches a terminal state
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	GET    /v1/trace/{id}    the job's completed (or so-far) span tree
//	GET    /v1/trace/{id}/stream  ndjson stream of spans as they complete
//	GET    /v1/metrics       cache, store, model-layer, pool, scheduler
//	                         and per-stage latency counters
//	GET    /v1/healthz       liveness
//
// Request bodies are capped at MaxRequestBytes; a larger body is
// answered 413 before anything is queued.
//
// Scheduling is a two-level priority queue: interactive jobs (the
// default class) always run before bulk ones, and each class is
// admitted under its own queue-depth limit. See DESIGN.md §21.
//
// Every job runs under an obs.Tracer, so each job carries the full
// span tree of its pipeline — model source, each measurement's cache
// outcome, solver effort — and every completed span also feeds the
// process-wide per-stage latency histograms reported under
// /v1/metrics ("stages").
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// DefaultRetainJobs bounds the terminal jobs kept in the table when
// Options.RetainJobs is zero. Terminal jobs exist only so clients can
// fetch results they already streamed; a long-lived daemon must not
// grow its table with every request it ever served.
const DefaultRetainJobs = 1024

// MinIntervalInstructions is the shortest phase-profiling interval a job
// may ask for. Every measurement of a phase build cuts its run into
// intervals, each with a 64-bucket signature, so a one-instruction
// interval would cut a Small mix run into ~4.8 M of them on each of the
// ~51 configurations a build measures.
const MinIntervalInstructions = 1_000

// Options configures a Server.
type Options struct {
	// Workers bounds the concurrently running tuning jobs (default 2).
	// Each job additionally parallelizes its own measurements on the
	// shared pool, so a small number of job workers saturates the CPU.
	Workers int
	// QueueDepth bounds the submitted-but-not-started interactive
	// backlog (default 256); past it, POST /v1/jobs returns 503.
	QueueDepth int
	// BulkQueueDepth bounds the bulk-class backlog the same way
	// (default: QueueDepth). The two admission budgets are independent:
	// a bulk flood cannot starve interactive admissions.
	BulkQueueDepth int
	// Provider is the shared measurement provider; nil builds a bounded
	// cache over the simulator with measure.DefaultCacheEntries entries.
	Provider measure.Provider
	// Store, when set, is reported under /v1/metrics. It does not alter
	// the provider stack — wire the store into Provider explicitly.
	Store *measure.Store
	// RetainJobs caps the terminal jobs kept in the table: beyond it the
	// oldest-finished are dropped. 0 means DefaultRetainJobs (so the
	// zero Options value retains sensibly; the smallest expressible cap
	// is 1), negative means unlimited. Queued and running jobs are never
	// dropped.
	RetainJobs int
	// JobTTL drops terminal jobs older than this (0 = no age bound).
	JobTTL time.Duration
	// ModelCacheEntries bounds the session's shared model layer
	// (<= 0 means core.DefaultModelCacheEntries).
	ModelCacheEntries int
	// ModelStore, when set, is the durable model tier: completed model
	// sets spill there and model-cache misses try it before rebuilding,
	// so a restarted (or sibling) replica serves a previously modeled
	// application with zero simulations and zero model builds.
	ModelStore *core.ModelStore
	// SlowJobThreshold, when positive, logs a warning for every job
	// whose wall-clock execution exceeds it, with the top stages of its
	// trace — so a degraded deployment names the stage that degraded
	// (cold measurement sweeps vs. a slow disk tier vs. solver blowup)
	// without anyone fetching a trace.
	SlowJobThreshold time.Duration
	// Logf receives the server's diagnostics (currently the slow-job
	// warnings); nil means the standard library logger.
	Logf func(format string, args ...any)
}

// retain resolves the configured terminal-job cap (-1 = unlimited).
func (o Options) retain() int {
	switch {
	case o.RetainJobs == 0:
		return DefaultRetainJobs
	case o.RetainJobs < 0:
		return -1
	}
	return o.RetainJobs
}

// JobRequest is the POST /v1/jobs payload.
type JobRequest struct {
	// App is the benchmark to tune: blastn, drr, frag, arith, mix.
	App string `json:"app"`
	// Scale is the workload scale (default "small").
	Scale string `json:"scale,omitempty"`
	// Space is the decision space: "full" (default) or "dcache".
	Space string `json:"space,omitempty"`
	// W1/W2/W3 are the objective weights (default: the paper's runtime
	// weighting w1=100, w2=1). An explicitly all-zero weighting — a
	// degenerate objective that scores every configuration 0 — is
	// treated as unspecified and gets the same default.
	W1 *float64 `json:"w1,omitempty"`
	W2 *float64 `json:"w2,omitempty"`
	W3 *float64 `json:"w3,omitempty"`
	// SampleInstructions optionally truncates each measurement run.
	SampleInstructions uint64 `json:"sample_instructions,omitempty"`
	// Workers bounds this job's measurement parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// IncludeModel embeds the full perturbation model in the result.
	IncludeModel bool `json:"include_model,omitempty"`
	// Class is the scheduling class: "interactive" (default) or "bulk".
	// Interactive jobs are always run before bulk ones, and each class
	// is admitted under its own queue-depth limit.
	Class string `json:"class,omitempty"`

	// Phases switches the job to phase-aware tuning: the result
	// (JobStatus.PhaseResult) is the core.Report with the phases block —
	// per-phase recommendations plus the switch-cost decision against
	// the whole-program configuration.
	Phases bool `json:"phases,omitempty"`
	// IntervalInstructions is the phase-profiling interval length
	// (0 = core.DefaultIntervalInstructions, otherwise at least
	// MinIntervalInstructions); phase jobs only.
	IntervalInstructions uint64 `json:"interval_instructions,omitempty"`
	// SwitchPenaltyCycles prices a full mid-run reconfiguration, of
	// which each switch is charged its changed-parameter share
	// (0 = core.DefaultSwitchPenaltyCycles); phase jobs only.
	SwitchPenaltyCycles uint64 `json:"switch_penalty_cycles,omitempty"`
	// PhaseThreshold overrides the phase-detection clustering threshold
	// (0 = phase.DefaultThreshold); phase jobs only.
	PhaseThreshold float64 `json:"phase_threshold,omitempty"`
	// Replay additionally replays the per-phase schedule for real — the
	// result gains the replay block with per-segment actual cycles and
	// the modeled-vs-replayed error; phase jobs only.
	Replay bool `json:"replay,omitempty"`
	// Online additionally runs the closed-loop mode: live classification
	// of each interval's signature picks the configuration with no
	// precomputed schedule, and the result's online block reports how
	// often the adaptive run diverged from it; phase jobs only.
	Online bool `json:"online,omitempty"`
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// MeasureProgress is the per-measurement progress of a running job: Done
// of Total measurements (base + one per decision variable, plus the
// validation run for plain jobs) have completed — cache and store hits
// included, which is why a warm daemon's progress jumps straight to
// Total. Streamed through the job's ndjson status on every step.
type MeasureProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobStatus is the externally visible job record.
type JobStatus struct {
	ID      string     `json:"id"`
	State   string     `json:"state"`
	Request JobRequest `json:"request"`
	Error   string     `json:"error,omitempty"`
	// Result is a plain job's outcome; PhaseResult a phase job's;
	// Results a batch job's — one report per expanded item, in item
	// order.
	Result      *core.Report   `json:"result,omitempty"`
	PhaseResult *core.Report   `json:"phase_result,omitempty"`
	Results     []*core.Report `json:"results,omitempty"`
	// Progress tracks the running job's completed measurements.
	Progress *MeasureProgress `json:"progress,omitempty"`
	Created  time.Time        `json:"created"`
	Started  *time.Time       `json:"started,omitempty"`
	Finished *time.Time       `json:"finished,omitempty"`
}

// Terminal reports whether the state is final.
func (s *JobStatus) Terminal() bool {
	switch s.State {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// job is the internal record behind a JobStatus, and its execution:
// each submission runs once, on its own context, and Cancel stops only
// that job.
type job struct {
	// req is the request the job executes, resolved once at submission.
	req core.Request
	// batch, when non-nil, makes this a batch job: the resolved expanded
	// items, executed sequentially through one session TuneBatch so items
	// differing only in weights share one model build. req is then
	// unused.
	batch  []core.Request
	ctx    context.Context
	cancel context.CancelFunc
	// trace is the job's tracer, kept past the execution so
	// GET /v1/trace/{id} serves a finished job's span tree for as long as
	// retention keeps the job.
	trace *obs.Tracer

	mu      sync.Mutex
	status  JobStatus
	updated chan struct{} // closed and replaced on every status change
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.status
	return s
}

// mutate applies fn under the job lock and wakes every status watcher.
func (j *job) mutate(fn func(*JobStatus)) {
	j.mu.Lock()
	j.mutateLocked(fn)
	j.mu.Unlock()
}

// mutateLocked is mutate for a caller already holding j.mu.
func (j *job) mutateLocked(fn func(*JobStatus)) {
	fn(&j.status)
	close(j.updated)
	j.updated = make(chan struct{})
}

// Server is the autoarchd daemon core: scheduler, job table and HTTP
// handlers. Construct with New, serve Handler(), Close on shutdown.
type Server struct {
	opts     Options
	provider measure.Provider
	cache    *measure.Cache // non-nil when the provider stack exposes one
	session  *core.Session  // the unified tuning pipeline every job runs through
	stages   *obs.Stages    // per-stage latency histograms across every job
	logf     func(format string, args ...any)
	// encodeErrors counts the responses that could not be encoded.
	encodeErrors atomic.Uint64

	baseCtx context.Context
	stop    context.CancelFunc
	queue   *jobQueue
	wg      sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*job
	// order lists the job ids in submission order, for the listing.
	// Retention deletes from jobs only; stale counts the dropped ids
	// still in order, which are compacted out once they are more than
	// half of it.
	order []string
	stale int
	// finished holds the terminal jobs still in the table, in Finished
	// order: every terminal transition appends under mu (finishLocked),
	// so retention pops its victims off the front. The other
	// len(jobs)-len(finished) jobs are queued or running.
	finished  []retired
	seq       int
	submitted uint64
	dropped   uint64
	batches   uint64
	closed    bool
}

// New builds a server and starts its worker scheduler.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.BulkQueueDepth <= 0 {
		opts.BulkQueueDepth = opts.QueueDepth
	}
	provider := opts.Provider
	var cache *measure.Cache
	if provider == nil {
		cache = measure.NewCache(measure.Simulator{}, measure.DefaultCacheEntries)
		provider = cache
	} else if c, ok := provider.(*measure.Cache); ok {
		cache = c
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		provider: provider,
		cache:    cache,
		stages:   obs.NewStages(),
		logf:     logf,
		session: core.NewSession(core.SessionOptions{
			Provider:          provider,
			ModelCacheEntries: opts.ModelCacheEntries,
			ModelStore:        opts.ModelStore,
		}),
		baseCtx: ctx,
		stop:    stop,
		queue:   newJobQueue(opts.QueueDepth, opts.BulkQueueDepth),
		jobs:    make(map[string]*job),
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if opts.JobTTL > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s
}

// janitor sweeps TTL-expired terminal jobs on an idle server (the sweep
// also runs on every submission and listing, but age-based retention
// must not depend on traffic to make progress).
func (s *Server) janitor() {
	defer s.wg.Done()
	interval := s.opts.JobTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.mu.Lock()
			s.sweepJobsLocked(time.Now())
			s.mu.Unlock()
		}
	}
}

// Close stops the scheduler, cancelling any running jobs, and waits for
// the workers to drain. Submissions racing Close are rejected rather
// than risking a send on the closed queue.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.queue.close()
	s.wg.Wait()
}

// Cache returns the server's bounded cache, or nil when the injected
// provider hides it.
func (s *Server) Cache() *measure.Cache { return s.cache }

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// resolve validates a request and maps it onto the unified
// core.Request — the only translation between the daemon's v1 format
// and the library. It runs once per submission; the job carries the
// result.
func resolve(req JobRequest) (core.Request, error) {
	b, ok := progs.ByName(req.App)
	if !ok {
		return core.Request{}, fmt.Errorf("unknown app %q", req.App)
	}
	scaleName := req.Scale
	if scaleName == "" {
		scaleName = "small"
	}
	sc, ok := workload.ParseScale(scaleName)
	if !ok {
		return core.Request{}, fmt.Errorf("unknown scale %q", req.Scale)
	}
	space, err := config.SpaceByName(req.Space)
	if err != nil {
		return core.Request{}, fmt.Errorf("unknown space %q", req.Space)
	}
	w := core.Weights{W1: 100, W2: 1}
	if req.W1 != nil {
		w.W1 = *req.W1
	}
	if req.W2 != nil {
		w.W2 = *req.W2
	}
	if req.W3 != nil {
		w.W3 = *req.W3
	}
	if (req.Replay || req.Online) && !req.Phases {
		return core.Request{}, fmt.Errorf("replay and online require phases")
	}
	if req.IntervalInstructions != 0 && req.IntervalInstructions < MinIntervalInstructions {
		return core.Request{}, fmt.Errorf("interval_instructions %d is below the minimum %d",
			req.IntervalInstructions, MinIntervalInstructions)
	}
	if _, err := normalizeClass(req.Class); err != nil {
		return core.Request{}, err
	}
	creq := core.Request{
		App:                b.Name,
		Scale:              sc,
		Space:              space,
		Weights:            w,
		SampleInstructions: req.SampleInstructions,
		Workers:            req.Workers,
		IncludeModel:       req.IncludeModel,
	}
	if req.Phases {
		creq.Phases = &core.PhaseOptions{
			IntervalInstructions: req.IntervalInstructions,
			SwitchPenaltyCycles:  req.SwitchPenaltyCycles,
			Threshold:            req.PhaseThreshold,
		}
		creq.Replay = req.Replay
		creq.Online = req.Online
	}
	return creq, nil
}

// normalizeClass resolves a request's scheduling class ("" means
// interactive).
func normalizeClass(c string) (string, error) {
	switch c {
	case "", ClassInteractive:
		return ClassInteractive, nil
	case ClassBulk:
		return ClassBulk, nil
	}
	return "", fmt.Errorf("unknown class %q", c)
}

// runJob executes one job and records its outcome. A job cancelled
// while queued is skipped; one cancelled while running is already
// terminal, so its outcome is dropped.
func (s *Server) runJob(j *job) {
	now := time.Now()
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.mutateLocked(func(st *JobStatus) {
		st.State = StateRunning
		st.Started = &now
	})
	j.mu.Unlock()

	// Per-measurement progress: every completed measurement (simulated,
	// cache-answered, or satisfied wholesale by a model-layer hit) reaches
	// the job's ndjson stream through the session's one observer surface.
	observer := core.ObserverFunc(func(done, total int) {
		j.mutate(func(st *JobStatus) {
			if st.Terminal() {
				return
			}
			// Concurrent measurements report concurrently; only ever
			// move the counter forward so the stream's Done is monotonic.
			if st.Progress == nil || done > st.Progress.Done {
				st.Progress = &MeasureProgress{Done: done, Total: total}
			}
		})
	})

	ctx := obs.WithTracer(j.ctx, j.trace)
	var report *core.Report
	var results []*core.Report
	var err error
	if j.batch != nil {
		results, err = s.tuneBatch(ctx, j.batch, observer)
	} else {
		req := j.req
		req.Observer = observer
		report, err = s.session.Tune(ctx, req)
	}
	j.trace.Finish()
	if elapsed := time.Since(now); s.opts.SlowJobThreshold > 0 && elapsed > s.opts.SlowJobThreshold {
		s.logSlowJob(j, elapsed)
	}

	s.mu.Lock()
	s.finishLocked(j, time.Now(), func(st *JobStatus) {
		switch {
		case err != nil:
			st.State = StateFailed
			st.Error = err.Error()
		case j.batch != nil:
			st.State, st.Results = StateDone, results
		case j.req.Phases != nil:
			st.State, st.PhaseResult = StateDone, report
		default:
			st.State, st.Result = StateDone, report
		}
	})
	s.mu.Unlock()
	j.cancel()
}

// finishLocked moves j to its terminal state — fn sets it, Finished is
// stamped with now — and appends j to the retention queue. A job that
// is already terminal is left as it is: a cancellation racing the
// job's completion ends the job once, whichever comes first. Every
// terminal transition goes through here under s.mu, so each job enters
// s.finished exactly once and in Finished order. Caller holds s.mu.
func (s *Server) finishLocked(j *job, now time.Time, fn func(*JobStatus)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.mutateLocked(func(st *JobStatus) {
		fn(st)
		st.Finished = &now
	})
	s.finished = append(s.finished, retired{id: j.status.ID, at: now})
}

// retired is one entry of the retention queue: a terminal job and its
// Finished time.
type retired struct {
	id string
	at time.Time
}

// tuneBatch executes a batch job's expanded items through one session
// TuneBatch call: items differing only in weights share one model build
// through the session's model layer, so the job's metrics show one
// build and N solves. Progress aggregates every item's
// completed measurements (model-layer hits jump an item's share at
// once); the total grows as items start, since an item's measurement
// count is known only when it runs.
func (s *Server) tuneBatch(ctx context.Context, items []core.Request, observer core.Observer) ([]*core.Report, error) {
	creqs := append([]core.Request(nil), items...)
	var mu sync.Mutex
	done := make([]int, len(items))
	total := make([]int, len(items))
	for i := range creqs {
		creqs[i].Observer = core.ObserverFunc(func(d, t int) {
			mu.Lock()
			done[i], total[i] = d, t
			var sd, st int
			for j := range done {
				sd += done[j]
				st += total[j]
			}
			mu.Unlock()
			if observer != nil {
				observer.TuneProgress(sd, st)
			}
		})
	}
	return s.session.TuneBatch(ctx, creqs)
}

// logSlowJob emits the slow-job warning: the job's wall time and the
// top stages of its trace by total duration, so the log line alone says
// where the time went.
func (s *Server) logSlowJob(j *job, elapsed time.Duration) {
	req := j.req
	if j.batch != nil {
		req = j.batch[0]
	}
	line := fmt.Sprintf("slow job: app=%s phases=%t took %s (threshold %s)",
		req.App, req.Phases != nil, elapsed.Round(time.Millisecond), s.opts.SlowJobThreshold)
	totals := j.trace.Snapshot().StageTotals()
	for i, t := range totals {
		if i == 3 {
			break
		}
		line += fmt.Sprintf("; %s %s ×%d", t.Name, t.Duration.Round(time.Millisecond), t.Count)
	}
	s.logf("%s", line)
}

// Submit enqueues a job (the programmatic form of POST /v1/jobs).
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	creq, err := resolve(req)
	if err != nil {
		return JobStatus{}, &apiError{http.StatusBadRequest, err.Error()}
	}
	return s.submit(req, creq, nil)
}

// submit creates the job, executing creq or the batch items when batch
// is non-nil, and admits it to the priority queue.
func (s *Server) submit(req JobRequest, creq core.Request, batch []core.Request) (JobStatus, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, &apiError{http.StatusServiceUnavailable, "server shutting down"}
	}
	s.seq++
	s.submitted++
	if batch != nil {
		s.batches++
	}
	id := fmt.Sprintf("job-%d", s.seq)
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		req: creq, batch: batch, ctx: ctx, cancel: cancel,
		// Every job is traced: the spans feed the process-wide stage
		// histograms either way, and the per-job cost (a few dozen spans)
		// is noise next to a single simulated run.
		trace: obs.NewTracer(obs.TracerOptions{Stages: s.stages}),
		status: JobStatus{
			ID:      id,
			State:   StateQueued,
			Request: req,
			Created: time.Now(),
		},
		updated: make(chan struct{}),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.sweepJobsLocked(time.Now())

	// The admission happens under s.mu so it cannot race Close's
	// queue.close(): Close flips s.closed under the same lock first.
	class, _ := normalizeClass(req.Class)
	if !s.queue.push(j, class) {
		s.finishLocked(j, time.Now(), func(st *JobStatus) {
			st.State = StateFailed
			st.Error = "queue full"
		})
		s.mu.Unlock()
		cancel()
		j.trace.Finish() // it never runs: end its trace stream
		return j.snapshot(), &apiError{http.StatusServiceUnavailable, "queue full"}
	}
	s.mu.Unlock()
	return j.snapshot(), nil
}

// Cancel cancels a job by id: a queued job is skipped by its worker, a
// running one is interrupted. A job that is already terminal is left as
// it is.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, &apiError{http.StatusNotFound, "no such job"}
	}
	queued := false
	s.finishLocked(j, time.Now(), func(st *JobStatus) {
		queued = st.State == StateQueued
		st.State = StateCancelled
	})
	s.mu.Unlock()
	j.cancel()
	if queued {
		// The worker skips a cancelled queued job, so nothing else would
		// end its trace stream. A running job's worker finishes its own.
		j.trace.Finish()
	}
	return j.snapshot(), nil
}

// sweepJobsLocked enforces retention: terminal jobs beyond the age bound
// (JobTTL) or count bound (RetainJobs, oldest-finished first) are
// dropped from the table. Queued and running jobs are never dropped —
// retention can not cancel work, only forget finished work. The victims
// are always at the front of the Finished-ordered s.finished, so a sweep
// costs O(1) amortized per job ever finished, whatever the table size.
// Caller holds s.mu.
func (s *Server) sweepJobsLocked(now time.Time) {
	retain, ttl := s.opts.retain(), s.opts.JobTTL
	for len(s.finished) > 0 {
		head := s.finished[0]
		over := retain >= 0 && len(s.finished) > retain
		if !over && (ttl <= 0 || now.Sub(head.at) <= ttl) {
			break
		}
		s.finished = s.finished[1:]
		delete(s.jobs, head.id)
		s.dropped++
		s.stale++
	}
	if s.stale > len(s.order)/2 {
		order := s.order[:0]
		for _, id := range s.order {
			if _, ok := s.jobs[id]; ok {
				order = append(order, id)
			}
		}
		clear(s.order[len(order):])
		s.order, s.stale = order, 0
	}
}

// Job returns one job's status.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// Jobs returns every job's status in submission order (after a
// retention sweep, so the listing is also what is actually retained).
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepJobsLocked(time.Now())
	out := make([]JobStatus, 0, len(s.order)-s.stale)
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.snapshot())
		}
	}
	return out
}

// SchedulerStats are the job-layer counters of /v1/metrics.
type SchedulerStats struct {
	// Submitted counts every accepted POST /v1/jobs.
	Submitted uint64 `json:"submitted"`
	// Deduped is always 0: every job is its own execution, and identical
	// jobs share their measurements and model build in the layers below.
	// It stays on the wire because existing readers compute a dedup rate
	// from it.
	Deduped uint64 `json:"deduped"`
	// Dropped counts terminal jobs forgotten by retention.
	Dropped uint64 `json:"dropped"`
	// Batches counts accepted POST /v1/batch submissions.
	Batches uint64 `json:"batches"`
	// Flights is the current number of queued plus running jobs.
	Flights int `json:"flights"`
	// InteractiveQueued and BulkQueued are the current per-class
	// backlogs of the two-level priority queue; InteractiveDepth and
	// BulkDepth their admission limits (past them, submission answers
	// 503).
	InteractiveQueued int `json:"interactive_queued"`
	BulkQueued        int `json:"bulk_queued"`
	InteractiveDepth  int `json:"interactive_depth"`
	BulkDepth         int `json:"bulk_depth"`
	// Retain and TTLSeconds echo the active retention policy.
	Retain     int     `json:"retain"`
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// Metrics is the GET /v1/metrics document. Models reports the session's
// shared model layer: models.hits/misses/builds say how often a job's
// model came from an earlier build — a warm daemon serving many
// weightings of one application shows builds frozen while hits grow.
// With a durable model tier (-model-dir), models.disk_hits/disk_misses/
// spills track the artifact traffic: a restarted replica serving a
// previously modeled application shows disk_hits growing while builds
// stays frozen at zero.
type Metrics struct {
	Cache     *measure.CacheStats   `json:"cache,omitempty"`
	Store     *measure.StoreStats   `json:"store,omitempty"`
	Models    *core.ModelCacheStats `json:"models,omitempty"`
	Pool      platform.PoolStats    `json:"pool"`
	Jobs      map[string]int        `json:"jobs"`
	Scheduler SchedulerStats        `json:"scheduler"`
	// Tuning aggregates the execution-tuning activity: superblock
	// compiles/hits/deopts across every simulated run and the schedule
	// replay and online-adaptation counts.
	Tuning platform.TuningCounters `json:"tuning"`
	// Stages is the per-stage latency aggregation over every traced
	// job: count, total and p50/p95/p99 per pipeline stage name
	// ("tune", "model", "measure", "solve", ...).
	Stages map[string]obs.StageStats `json:"stages,omitempty"`
	// EncodeErrors counts the responses and stream lines the server could
	// not encode as JSON, each answered with an error instead.
	EncodeErrors uint64 `json:"encode_errors"`
}

// MetricsSnapshot assembles the current counters.
func (s *Server) MetricsSnapshot() Metrics {
	m := Metrics{
		Pool:         platform.PoolSnapshot(),
		Jobs:         map[string]int{},
		Tuning:       platform.Counters(),
		Stages:       s.stages.Snapshot(),
		EncodeErrors: s.encodeErrors.Load(),
	}
	models := s.session.ModelStats()
	m.Models = &models
	if s.cache != nil {
		st := s.cache.Stats()
		m.Cache = &st
	}
	if s.opts.Store != nil {
		st := s.opts.Store.Stats()
		m.Store = &st
	}
	for _, js := range s.Jobs() {
		m.Jobs[js.State]++
	}
	qi, qb := s.queue.lens()
	s.mu.Lock()
	m.Scheduler = SchedulerStats{
		Submitted:         s.submitted,
		Dropped:           s.dropped,
		Batches:           s.batches,
		Flights:           len(s.jobs) - len(s.finished),
		InteractiveQueued: qi,
		BulkQueued:        qb,
		InteractiveDepth:  s.opts.QueueDepth,
		BulkDepth:         s.opts.BulkQueueDepth,
		Retain:            s.opts.retain(),
	}
	if s.opts.JobTTL > 0 {
		m.Scheduler.TTLSeconds = s.opts.JobTTL.Seconds()
	}
	s.mu.Unlock()
	return m
}

// apiError carries an HTTP status with a message.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

// writeJSON answers with v as indented JSON. v is encoded before the
// header goes out, so a value JSON cannot hold (a non-finite float)
// becomes a 500 with an error body instead of a 200 with none; the
// failure is logged and counted (Metrics.EncodeErrors).
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.encodeFailed(err)
		code = http.StatusInternalServerError
		_ = enc.Encode(map[string]string{"error": "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if ae, ok := err.(*apiError); ok {
		code = ae.code
	}
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
}

// lineWriter writes the lines of one ndjson stream, each encoded whole
// before it is written.
type lineWriter struct {
	s   *Server
	w   http.ResponseWriter
	buf bytes.Buffer
	enc *json.Encoder
}

func (s *Server) newLineWriter(w http.ResponseWriter) *lineWriter {
	lw := &lineWriter{s: s, w: w}
	lw.enc = json.NewEncoder(&lw.buf)
	return lw
}

// write writes v as one line. A value JSON cannot hold ends the stream
// with an {"error": ...} line, logged and counted as in writeJSON. It
// reports whether the stream may go on.
func (lw *lineWriter) write(v any) bool {
	lw.buf.Reset()
	if err := lw.enc.Encode(v); err != nil {
		lw.s.encodeFailed(err)
		_ = lw.enc.Encode(map[string]string{"error": "encoding the stream: " + err.Error()})
		_, _ = lw.w.Write(lw.buf.Bytes())
		return false
	}
	_, err := lw.w.Write(lw.buf.Bytes())
	return err == nil
}

// encodeFailed logs and counts a response the server could not encode.
func (s *Server) encodeFailed(err error) {
	s.encodeErrors.Add(1)
	s.logf("serve: encoding a response: %v", err)
}

// MaxRequestBytes caps a POST /v1/jobs or /v1/batch body. The largest
// legitimate request, a MaxBatchItems matrix with every field set, is a
// few kilobytes; the cap stops a client from making the server allocate
// an arbitrarily large payload before any validation runs.
const MaxRequestBytes = 64 << 10

// decodeBody decodes a JSON request body of at most MaxRequestBytes
// into v: 413 past the cap, 400 for anything else it cannot decode.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(v)
	if err == nil {
		return nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &apiError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", MaxRequestBytes)}
	}
	return &apiError{http.StatusBadRequest, "invalid request: " + err.Error()}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if err := decodeBody(w, r, &req); err != nil {
			s.writeErr(w, err)
			return
		}
		st, err := s.Submit(req)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		s.writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Job(r.PathValue("id"))
		if !ok {
			s.writeErr(w, &apiError{http.StatusNotFound, "no such job"})
			return
		}
		s.writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.streamJob)
	mux.HandleFunc("GET /v1/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		doc, err := s.Trace(r.PathValue("id"))
		if err != nil {
			s.writeErr(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, doc)
	})
	mux.HandleFunc("GET /v1/trace/{id}/stream", s.streamTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			s.writeErr(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := decodeBody(w, r, &req); err != nil {
			s.writeErr(w, err)
			return
		}
		st, err := s.SubmitBatch(req)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		s.writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.MetricsSnapshot())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// TraceDoc is the GET /v1/trace/{id} document: the job's span forest
// (normally a single "tune" root with the stage spans beneath it). A
// trace with Complete false belongs to a still-running job and shows
// the spans ended so far.
type TraceDoc struct {
	Job      string          `json:"job"`
	State    string          `json:"state"`
	Started  time.Time       `json:"started"`
	Complete bool            `json:"complete"`
	Dropped  uint64          `json:"dropped,omitempty"`
	Spans    []*obs.SpanNode `json:"spans"`
}

// Trace returns one job's span tree (the programmatic form of
// GET /v1/trace/{id}).
func (s *Server) Trace(id string) (TraceDoc, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return TraceDoc{}, &apiError{http.StatusNotFound, "no such job"}
	}
	tr := j.trace.Snapshot()
	return TraceDoc{
		Job:      id,
		State:    j.snapshot().State,
		Started:  tr.Started,
		Complete: tr.Complete,
		Dropped:  tr.Dropped,
		Spans:    tr.Tree(),
	}, nil
}

// streamTrace writes newline-delimited SpanRecords: every span already
// completed, then each new one as it ends, until the trace finishes (or
// the client goes away). A live pipeline shows its measurement spans
// arriving in real time.
func (s *Server) streamTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		s.writeErr(w, &apiError{http.StatusNotFound, "no such job"})
		return
	}
	ch, cancel := j.trace.Subscribe(64)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Headers go out at once: a queued job may not end a span for as
	// long as it waits.
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	lines := s.newLineWriter(w)
	for {
		select {
		case rec, open := <-ch:
			if !open {
				return
			}
			if !lines.write(rec) {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// streamJob writes newline-delimited JobStatus snapshots: one
// immediately, then one per state change, ending at a terminal state (or
// when the client goes away).
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		s.writeErr(w, &apiError{http.StatusNotFound, "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	lines := s.newLineWriter(w)
	for {
		// Snapshot and watch channel must come from the same critical
		// section, or a state change between them would be missed.
		j.mu.Lock()
		st := j.status
		ch := j.updated
		j.mu.Unlock()
		if !lines.write(st) {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.Terminal() {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
