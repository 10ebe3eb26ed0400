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
// (DESIGN.md §14): identical in-flight requests coalesce onto one
// execution (a flight) with every attached job streaming the same
// progress, terminal jobs are retained only up to a configured
// count/age, and the measurement store a fleet shares over one
// directory is swept by the measure layer's GC.
//
// API (all JSON):
//
//	POST   /v1/jobs          submit a JobRequest, returns the queued JobStatus
//	POST   /v1/batch         submit a BatchRequest (app × space × weighting
//	                         matrix); the expanded items run as ONE flight
//	                         through one session batch, so a weight sweep
//	                         performs one model build and N solves
//	GET    /v1/jobs          list every job's JobStatus
//	GET    /v1/jobs/{id}     one job's JobStatus (with result when done)
//	GET    /v1/jobs/{id}/stream  ndjson stream of JobStatus snapshots
//	                             until the job reaches a terminal state
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	GET    /v1/trace/{id}    the job's completed (or so-far) span tree
//	GET    /v1/trace/{id}/stream  ndjson stream of spans as they complete
//	GET    /v1/metrics       cache, store, model-layer, pool, scheduler,
//	                         fabric and per-stage latency counters
//	GET    /v1/healthz       liveness
//
// With a fabric role configured (Options.Fabric / Options.Worker) the
// distributed-measurement endpoints join the surface:
//
//	POST   /v1/workers       worker heartbeat registration (coordinator)
//	GET    /v1/workers       the registered worker table (coordinator)
//	POST   /v1/measure       one measurement RPC (worker)
//
// Scheduling is a two-level priority queue: interactive jobs (the
// default class) always run before bulk ones, and each class is
// admitted under its own queue-depth limit. See DESIGN.md §21.
//
// Every flight runs under an obs.Tracer, so each job carries the full
// span tree of its pipeline — model source, each measurement's cache
// outcome, solver effort — and every completed span also feeds the
// process-wide per-stage latency histograms reported under
// /v1/metrics ("stages").
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/fabric"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/phase"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// DefaultRetainJobs bounds the terminal jobs kept in the table when
// Options.RetainJobs is zero. Terminal jobs exist only so clients can
// fetch results they already streamed; a long-lived daemon must not
// grow its table with every request it ever served.
const DefaultRetainJobs = 1024

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
	// application with zero simulations and zero model builds. When
	// Store is also set, each spill records its measurement set in the
	// store so the store's GC evicts the set cohesively.
	ModelStore *core.ModelStore
	// SlowJobThreshold, when positive, logs a warning for every flight
	// whose wall-clock execution exceeds it, with the top stages of its
	// trace — so a degraded deployment names the stage that degraded
	// (cold measurement sweeps vs. a slow disk tier vs. solver blowup)
	// without anyone fetching a trace.
	SlowJobThreshold time.Duration
	// Logf receives the server's diagnostics (currently the slow-job
	// warnings); nil means the standard library logger.
	Logf func(format string, args ...any)
	// Fabric, when set, makes this server a measurement-fabric
	// coordinator: POST/GET /v1/workers serve worker registration, and
	// the fabric's dispatch counters and worker table appear under
	// /v1/metrics. The Remote itself must also be wired into Provider
	// (below the cache) for jobs to actually dispatch remotely.
	Fabric *fabric.Remote
	// Worker, when set, makes this server a measurement-fabric worker:
	// POST /v1/measure serves measurement RPCs through it, and its
	// serve counters appear under /v1/metrics.
	Worker *fabric.Worker
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
	// Interactive flights are always run before bulk ones, and each
	// class is admitted under its own queue-depth limit.
	Class string `json:"class,omitempty"`

	// Phases switches the job to phase-aware tuning: the result
	// (JobStatus.PhaseResult) is the core.Report with the phases block —
	// per-phase recommendations plus the switch-cost decision against
	// the whole-program configuration.
	Phases bool `json:"phases,omitempty"`
	// IntervalInstructions is the phase-profiling interval length
	// (0 = core.DefaultIntervalInstructions); phase jobs only.
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
	// Progress tracks the running flight's completed measurements.
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

// job is the internal record behind a JobStatus.
type job struct {
	flight *flight // the execution this job rides; guarded by Server.mu

	// trace is the tracer of the flight this job rode, kept past the
	// flight itself so GET /v1/trace/{id} serves a finished job's span
	// tree for as long as retention keeps the job. Set once at attach
	// (under Server.mu), immutable after.
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

// watch returns the channel that is closed at the next status change.
func (j *job) watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.updated
}

// flight is one shared execution of identical JobRequests: the job-layer
// singleflight, mirroring measure.Cache's measurement-layer one. The
// first submitter creates the flight and its request is the one
// executed; identical submissions arriving before it finishes attach to
// it instead of queueing a second execution, and every attached job's
// status tracks the flight. Cancelling a job only detaches it — the
// execution itself is cancelled when its last job detaches.
type flight struct {
	key string
	// req is the request the flight executes, resolved once at
	// submission.
	req    core.Request
	ctx    context.Context
	cancel context.CancelFunc
	tracer *obs.Tracer
	// batch, when non-nil, makes this a batch flight: the resolved
	// expanded items, executed sequentially through one session
	// TuneBatch so items differing only in weights share one model
	// build. req is then unused.
	batch []core.Request

	// Guarded by Server.mu.
	jobs      []*job // attached (not individually cancelled) jobs
	started   bool
	startedAt time.Time
}

// detachLocked removes j; the caller holds Server.mu. Reports whether
// the flight is now empty (and should be cancelled by the caller).
func (f *flight) detachLocked(j *job) bool {
	for i, other := range f.jobs {
		if other == j {
			f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
			break
		}
	}
	return len(f.jobs) == 0
}

// Server is the autoarchd daemon core: scheduler, job table and HTTP
// handlers. Construct with New, serve Handler(), Close on shutdown.
type Server struct {
	opts     Options
	provider measure.Provider
	cache    *measure.Cache // non-nil when the provider stack exposes one
	session  *core.Session  // the unified tuning pipeline every job runs through
	stages   *obs.Stages    // per-stage latency histograms across every flight
	logf     func(format string, args ...any)

	baseCtx context.Context
	stop    context.CancelFunc
	queue   *flightQueue
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
	// so retention pops its victims off the front.
	finished  []retired
	flights   map[string]*flight
	seq       int
	submitted uint64
	deduped   uint64
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
			MeasureStore:      opts.Store,
		}),
		baseCtx: ctx,
		stop:    stop,
		queue:   newFlightQueue(opts.QueueDepth, opts.BulkQueueDepth),
		jobs:    make(map[string]*job),
		flights: make(map[string]*flight),
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
		f, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runFlight(f)
	}
}

// resolve validates a request and maps it onto the unified
// core.Request — the only translation between the daemon's v1 format
// and the library. It runs once per submission; the flight carries the
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

// dedupKey canonicalizes the result-determining fields of a resolved
// request: two requests with equal keys are guaranteed the same
// report (the simulator and solver are deterministic), which is what
// licenses coalescing them onto one flight. Workers is deliberately
// excluded — it only tunes the flight's internal parallelism (the first
// submitter's value wins); everything else participates.
func dedupKey(req JobRequest, creq core.Request) string {
	space := req.Space
	if space == "" {
		space = "full"
	}
	w := creq.Weights
	key := fmt.Sprintf("app=%s scale=%s space=%s w1=%g w2=%g w3=%g sample=%d model=%t",
		creq.App, creq.Scale, space, w.W1, w.W2, w.W3, req.SampleInstructions, req.IncludeModel)
	if req.Phases {
		// Phase jobs answer a different question, with their own knobs —
		// normalized first, so a request spelling a default explicitly
		// coalesces with one omitting it.
		interval := req.IntervalInstructions
		if interval == 0 {
			interval = core.DefaultIntervalInstructions
		}
		penalty := req.SwitchPenaltyCycles
		if penalty == 0 {
			penalty = core.DefaultSwitchPenaltyCycles
		}
		threshold := req.PhaseThreshold
		if threshold <= 0 {
			threshold = phase.DefaultThreshold
		}
		key += fmt.Sprintf(" phases interval=%d penalty=%d threshold=%g replay=%t online=%t",
			interval, penalty, threshold, req.Replay, req.Online)
	}
	if req.Class == ClassBulk {
		// Same result either way, but a bulk and an interactive job must
		// not share a flight: the dedup winner's class would schedule the
		// loser's work at the wrong priority.
		key += " class=bulk"
	}
	return key
}

// runFlight executes one flight and broadcasts its outcome to every job
// still attached. Jobs that detached (individual cancellations) already
// reached their terminal state and are not touched.
func (s *Server) runFlight(f *flight) {
	s.mu.Lock()
	if len(f.jobs) == 0 {
		// Every submitter cancelled before a worker got here; Cancel
		// already unmapped the flight.
		s.mu.Unlock()
		f.cancel()
		return
	}
	now := time.Now()
	f.started = true
	f.startedAt = now
	running := append([]*job(nil), f.jobs...)
	s.mu.Unlock()
	for _, j := range running {
		j.mutate(func(st *JobStatus) {
			if st.Terminal() {
				// Cancelled between the passenger snapshot and this
				// broadcast; it must not be revived into "running".
				return
			}
			st.State = StateRunning
			st.Started = &now
		})
	}

	// Per-measurement progress: every completed measurement (simulated,
	// cache-answered, or satisfied wholesale by a model-layer hit) is
	// broadcast to every attached job's ndjson stream through the
	// session's one observer surface.
	observer := core.ObserverFunc(func(done, total int) {
		s.mu.Lock()
		watchers := append([]*job(nil), f.jobs...)
		s.mu.Unlock()
		for _, j := range watchers {
			j.mutate(func(st *JobStatus) {
				if st.Terminal() {
					return
				}
				// Concurrent measurements broadcast concurrently; only
				// ever move the counter forward so the stream's Done is
				// monotonic.
				if st.Progress == nil || done > st.Progress.Done {
					st.Progress = &MeasureProgress{Done: done, Total: total}
				}
			})
		}
	})

	ctx := obs.WithTracer(f.ctx, f.tracer)
	var report *core.Report
	var results []*core.Report
	var err error
	if f.batch != nil {
		results, err = s.tuneBatch(ctx, f.batch, observer)
	} else {
		req := f.req
		req.Observer = observer
		report, err = s.session.Tune(ctx, req)
	}
	f.tracer.Finish()
	if elapsed := time.Since(now); s.opts.SlowJobThreshold > 0 && elapsed > s.opts.SlowJobThreshold {
		s.logSlowFlight(f, elapsed)
	}

	// Delete-then-broadcast under the table lock: once the flight is out
	// of the map no new submission can attach, so f.jobs is the complete
	// passenger list. The delete is conditional — a cancel-all may have
	// unmapped this flight already and a fresh flight may own the key
	// now.
	s.mu.Lock()
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	ended := time.Now()
	for _, j := range f.jobs {
		s.finishLocked(j, ended, func(st *JobStatus) {
			switch {
			case err == nil:
				st.State = StateDone
				switch {
				case f.batch != nil:
					st.Results = results
				case f.req.Phases != nil:
					st.PhaseResult = report
				default:
					st.Result = report
				}
			case f.ctx.Err() != nil && s.baseCtx.Err() == nil:
				st.State = StateCancelled
				st.Error = context.Canceled.Error()
			default:
				st.State = StateFailed
				st.Error = err.Error()
			}
		})
	}
	s.mu.Unlock()
	f.cancel()
}

// finishLocked moves j to its terminal state — fn sets it, Finished is
// stamped with now — and appends j to the retention queue. A job that
// is already terminal is left as it is: a cancellation racing the
// flight's broadcast ends the job once, whichever comes first. Every
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

// tuneBatch executes a batch flight's expanded items through one
// session TuneBatch call: items differing only in weights share one
// model build through the session's model layer, so the flight's
// metrics show one build and N solves. Progress aggregates every item's
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

// logSlowFlight emits the slow-job warning: the flight's wall time and
// the top stages of its trace by total duration, so the log line alone
// says where the time went.
func (s *Server) logSlowFlight(f *flight, elapsed time.Duration) {
	req := f.req
	if f.batch != nil {
		req = f.batch[0]
	}
	line := fmt.Sprintf("slow job: app=%s phases=%t took %s (threshold %s)",
		req.App, req.Phases != nil, elapsed.Round(time.Millisecond), s.opts.SlowJobThreshold)
	totals := f.tracer.Snapshot().StageTotals()
	for i, t := range totals {
		if i == 3 {
			break
		}
		line += fmt.Sprintf("; %s %s ×%d", t.Name, t.Duration.Round(time.Millisecond), t.Count)
	}
	s.logf("%s", line)
}

// Submit enqueues a job (the programmatic form of POST /v1/jobs). An
// identical in-flight request coalesces: the new job attaches to the
// existing flight instead of queueing a second execution, so both
// clients observe the same progress and receive the same result.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	creq, err := resolve(req)
	if err != nil {
		return JobStatus{}, &apiError{http.StatusBadRequest, err.Error()}
	}
	return s.submit(req, dedupKey(req, creq), creq, nil)
}

// submit creates the job record and either attaches it to the key's
// in-flight execution or admits a new flight — executing creq, or the
// batch items when batch is non-nil — to the priority queue.
func (s *Server) submit(req JobRequest, key string, creq core.Request, batch []core.Request) (JobStatus, error) {
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
	j := &job{
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

	if f, ok := s.flights[key]; ok {
		// Dedup: ride the existing execution.
		s.deduped++
		j.flight = f
		j.trace = f.tracer
		f.jobs = append(f.jobs, j)
		if f.started {
			started := f.startedAt
			j.status.State = StateRunning
			j.status.Started = &started
		}
		s.mu.Unlock()
		return j.snapshot(), nil
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	f := &flight{
		key: key, req: creq, ctx: ctx, cancel: cancel, jobs: []*job{j}, batch: batch,
		// Every flight is traced: the spans feed the process-wide stage
		// histograms either way, and the per-flight cost (a few dozen
		// spans per job) is noise next to a single simulated run.
		tracer: obs.NewTracer(obs.TracerOptions{Stages: s.stages}),
	}
	j.flight = f
	j.trace = f.tracer
	s.flights[key] = f
	// The admission happens under s.mu so it cannot race Close's
	// queue.close(): Close flips s.closed under the same lock first.
	class, _ := normalizeClass(req.Class)
	if !s.queue.push(f, class) {
		delete(s.flights, key)
		s.finishLocked(j, time.Now(), func(st *JobStatus) {
			st.State = StateFailed
			st.Error = "queue full"
		})
		s.mu.Unlock()
		cancel()
		return j.snapshot(), &apiError{http.StatusServiceUnavailable, "queue full"}
	}
	s.mu.Unlock()
	return j.snapshot(), nil
}

// Cancel cancels a job by id. A job sharing a flight with others only
// detaches — the execution continues for the remaining passengers, and
// is itself cancelled when the last one leaves.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, &apiError{http.StatusNotFound, "no such job"}
	}
	var emptied *flight
	if st := j.snapshot(); !st.Terminal() {
		if f := j.flight; f != nil && f.detachLocked(j) {
			emptied = f
			// Unmap eagerly: a dying flight must not pick up fresh
			// passengers between now and its worker observing the
			// cancellation.
			if s.flights[f.key] == f {
				delete(s.flights, f.key)
			}
		}
		s.finishLocked(j, time.Now(), func(st *JobStatus) { st.State = StateCancelled })
	}
	s.mu.Unlock()
	if emptied != nil {
		// Last passenger gone: stop the execution (a queued flight is
		// skipped by its worker, a running one is interrupted).
		emptied.cancel()
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
	// Deduped counts submissions that attached to an existing flight
	// instead of executing (the job-layer singleflight hits).
	Deduped uint64 `json:"deduped"`
	// Dropped counts terminal jobs forgotten by retention.
	Dropped uint64 `json:"dropped"`
	// Batches counts accepted POST /v1/batch submissions.
	Batches uint64 `json:"batches"`
	// Flights is the current number of distinct in-flight executions.
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

// FabricMetrics is the fabric section of /v1/metrics: the remote
// dispatch counters and worker table on a coordinator, the RPC serve
// counters on a worker. Absent entirely on a daemon with no fabric
// role.
type FabricMetrics struct {
	Remote  *fabric.RemoteStats `json:"remote,omitempty"`
	Worker  *fabric.WorkerStats `json:"worker,omitempty"`
	Workers []fabric.WorkerInfo `json:"workers,omitempty"`
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
	// flight: count, total and p50/p95/p99 per pipeline stage name
	// ("tune", "model", "measure", "solve", ...).
	Stages map[string]obs.StageStats `json:"stages,omitempty"`
	// Fabric reports the distributed measurement fabric (coordinator
	// dispatch counters, worker table, worker RPC counters) when this
	// daemon plays either fabric role.
	Fabric *FabricMetrics `json:"fabric,omitempty"`
}

// MetricsSnapshot assembles the current counters.
func (s *Server) MetricsSnapshot() Metrics {
	m := Metrics{
		Pool:   platform.PoolSnapshot(),
		Jobs:   map[string]int{},
		Tuning: platform.Counters(),
		Stages: s.stages.Snapshot(),
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
	if s.opts.Fabric != nil || s.opts.Worker != nil {
		fm := &FabricMetrics{}
		if s.opts.Fabric != nil {
			st := s.opts.Fabric.Stats()
			fm.Remote = &st
			fm.Workers = s.opts.Fabric.Registry().Snapshot()
		}
		if s.opts.Worker != nil {
			st := s.opts.Worker.Stats()
			fm.Worker = &st
		}
		m.Fabric = fm
	}
	for _, js := range s.Jobs() {
		m.Jobs[js.State]++
	}
	qi, qb := s.queue.lens()
	s.mu.Lock()
	m.Scheduler = SchedulerStats{
		Submitted:         s.submitted,
		Deduped:           s.deduped,
		Dropped:           s.dropped,
		Batches:           s.batches,
		Flights:           len(s.flights),
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if ae, ok := err.(*apiError); ok {
		code = ae.code
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, &apiError{http.StatusBadRequest, "invalid request: " + err.Error()})
			return
		}
		st, err := s.Submit(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeErr(w, &apiError{http.StatusNotFound, "no such job"})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.streamJob)
	mux.HandleFunc("GET /v1/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		doc, err := s.Trace(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, doc)
	})
	mux.HandleFunc("GET /v1/trace/{id}/stream", s.streamTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, &apiError{http.StatusBadRequest, "invalid request: " + err.Error()})
			return
		}
		st, err := s.SubmitBatch(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	if s.opts.Fabric != nil {
		mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
			var reg fabric.Registration
			if err := json.NewDecoder(r.Body).Decode(&reg); err != nil {
				writeErr(w, &apiError{http.StatusBadRequest, "invalid registration: " + err.Error()})
				return
			}
			if err := s.opts.Fabric.Registry().Register(reg); err != nil {
				writeErr(w, &apiError{http.StatusBadRequest, err.Error()})
				return
			}
			w.WriteHeader(http.StatusNoContent)
		})
		mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, s.opts.Fabric.Registry().Snapshot())
		})
	}
	if s.opts.Worker != nil {
		mux.Handle("POST /v1/measure", s.opts.Worker)
	}
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
	if j.trace == nil {
		// The job never reached a flight with a tracer (failed submission).
		return TraceDoc{}, &apiError{http.StatusNotFound, "no trace for job"}
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
	if !ok || j.trace == nil {
		writeErr(w, &apiError{http.StatusNotFound, "no such job"})
		return
	}
	ch, cancel := j.trace.Subscribe(64)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case rec, open := <-ch:
			if !open {
				return
			}
			if err := enc.Encode(rec); err != nil {
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
		writeErr(w, &apiError{http.StatusNotFound, "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		// Snapshot and watch channel must come from the same critical
		// section, or a state change between them would be missed.
		j.mu.Lock()
		st := j.status
		ch := j.updated
		j.mu.Unlock()
		if err := enc.Encode(st); err != nil {
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
