package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"liquidarch/internal/config"
	"liquidarch/internal/fpga"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/phase"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// Session is the unified tuning service: one Request→Report pipeline
// behind a single entry point, Tune. A Session owns the measurement
// provider, the worker-pool defaults and a shared model layer — a
// bounded, singleflighted cache of built perturbation models — so N
// weightings or phase runs of the same application perform exactly one
// model build (the ~52 measurements) and N cheap BINLP solves. The
// autoarch CLI, the autoarchd daemon, the experiment harnesses and the
// examples all construct their Requests against one long-lived Session.
//
// A Session is safe for concurrent use; concurrent Tune calls for the
// same (program, space, scale, interval) join one model build.
type Session struct {
	provider     measure.Provider
	workers      int
	models       *modelCache
	store        *ModelStore
	measureStore *measure.Store
}

// SessionOptions configures a Session. The zero value is usable: the
// process-wide shared measurement cache, GOMAXPROCS measurement workers
// and a DefaultModelCacheEntries-bounded model layer.
type SessionOptions struct {
	// Provider supplies the measurements; nil means the process-wide
	// shared bounded cache over the simulator (measure.Default()). A
	// serving system injects its own stack here so concurrent tuning
	// jobs share one cache.
	Provider measure.Provider
	// Workers bounds the parallel measurement runs of each request that
	// does not set its own (default GOMAXPROCS).
	Workers int
	// ModelCacheEntries bounds the shared model layer (<= 0 means
	// DefaultModelCacheEntries).
	ModelCacheEntries int
	// ModelStore, when set, makes the model layer durable: every
	// successfully built model set is spilled to an on-disk artifact, and
	// a model-cache miss tries the store before rebuilding — a restarted
	// or sibling replica skips both the ~52 measurement reads and the
	// rebuild. Corrupt or mismatched artifacts read as misses; failed
	// builds are never spilled.
	ModelStore *ModelStore
	// MeasureStore, when set alongside ModelStore, receives a set
	// manifest (measure.Store.SaveSet) for every spilled model set,
	// naming the measurement entries the build consumed — the store's GC
	// then evicts a build's entries as one cohesive unit instead of
	// breaking warm sets one file at a time.
	MeasureStore *measure.Store
}

// DefaultModelCacheEntries bounds a session's model layer when
// SessionOptions does not say otherwise. A model set is a few kilobytes
// (52 entries plus per-phase copies), so the default keeps every
// workload a long-lived daemon plausibly serves resident.
const DefaultModelCacheEntries = 128

// NewSession builds a session over the given options.
func NewSession(opts SessionOptions) *Session {
	p := opts.Provider
	if p == nil {
		p = measure.Default()
	}
	return &Session{
		provider:     p,
		workers:      opts.Workers,
		models:       newModelCache(opts.ModelCacheEntries),
		store:        opts.ModelStore,
		measureStore: opts.MeasureStore,
	}
}

// Provider returns the session's measurement provider, so sibling
// measurement fan-outs (exhaustive sweeps, custom validations) share
// the session's cache stack.
func (s *Session) Provider() measure.Provider { return s.provider }

// ModelStats returns a snapshot of the shared model layer's counters,
// including the durable tier's disk traffic when a ModelStore is wired.
func (s *Session) ModelStats() ModelCacheStats {
	st := s.models.stats()
	if s.store != nil {
		st.DiskHits = s.store.hits.Load()
		st.DiskMisses = s.store.misses.Load()
		st.Spills = s.store.spills.Load()
	}
	return st
}

// Tune runs one tuning request end to end and assembles its Report:
// resolve the request, obtain the model(s) — from the shared model
// layer when an equivalent build already ran, measuring through the
// session's provider otherwise — solve the BINLP under the request's
// weights, and validate (plain runs) or weigh the reconfiguration
// schedule (phase runs). Cancelling ctx aborts the run promptly with
// the context's error.
func (s *Session) Tune(ctx context.Context, req Request) (*Report, error) {
	b, space, w, err := req.resolve()
	if err != nil {
		return nil, err
	}
	phased := req.Phases != nil
	// The "tune" root span. When no tracer rides the context (the
	// default), every span below is a nil no-op and the pipeline runs
	// allocation-free through the obs layer.
	ctx, tuneSpan := obs.Start(ctx, "tune")
	if tuneSpan != nil {
		tuneSpan.Set(
			obs.String("app", req.App),
			obs.String("scale", req.Scale.String()),
			obs.Int("space_vars", int64(space.Len())),
			obs.Bool("phases", phased))
	}
	defer tuneSpan.End()
	var popts PhaseOptions
	if phased {
		popts = req.Phases.normalized()
	}

	prog := &progressCounter{obs: req.Observer, total: tuneTotal(space, req)}
	tn := &tuner{
		space: space,
		scale: req.Scale,
		// The per-measurement hook fires on cache and store hits too —
		// the layers below answered them, the request still consumed them.
		provider: measure.Observed{Inner: s.provider, OnMeasure: prog.step},
		workers:  req.workers(s.workers),
		sample:   req.SampleInstructions,
	}

	// One trace scope covers the request's model build and, when this
	// request built the model, its validation: the leaf simulator
	// executes the program once and times every other configuration
	// from that recording (DESIGN.md §22). A validation on a model built
	// elsewhere is a single run, which the fast path does cheaper than a
	// recording.
	scoped := measure.WithTraceScope(ctx)
	ownBuild := false

	// The "model" stage span covers obtaining the model set however it
	// is answered; its "source" attribute says which tier did (pre-built
	// | shared | disk | build).
	mctx, modelSpan := obs.Start(scoped, "model")
	var set *modelSet
	if req.Model != nil {
		set = &modelSet{models: []*Model{req.Model}, baseRes: req.Model.BaseResources}
		modelSpan.Set(obs.String("source", "pre-built"))
		modelSpan.End()
	} else {
		program, err := b.Assemble(req.Scale)
		if err != nil {
			modelSpan.End()
			return nil, err
		}
		key := modelKey{
			prog:   measure.Fingerprint(program),
			space:  space.Fingerprint(),
			scale:  req.Scale,
			sample: req.SampleInstructions,
		}
		if phased {
			key.interval = popts.IntervalInstructions
			key.threshold = popts.threshold()
		}
		var shared bool
		var fromDisk atomic.Bool
		set, shared, err = s.models.get(mctx, key, func() (*modelSet, bool, error) {
			// Disk before rebuild: a completed build spilled by an earlier
			// incarnation (or a sibling replica) answers the miss without
			// a single measurement — and without counting as a build.
			if s.store != nil {
				if ds, ok := s.store.load(key); ok {
					fromDisk.Store(true)
					return ds, false, nil
				}
			}
			bt := *tn
			var rec *measure.KeyRecorder
			if s.store != nil && s.measureStore != nil {
				// Record the measurement keys the build consumes (cache
				// hits included) so the spill can name its cohesive set.
				// Validation runs happen outside this closure and stay out.
				rec = measure.NewKeyRecorder(bt.provider)
				bt.provider = rec
			}
			var built *modelSet
			if phased {
				ps, perr := bt.buildPhaseSet(mctx, b, popts)
				if perr != nil {
					return nil, false, perr
				}
				built = ps
			} else {
				m, merr := bt.buildModel(mctx, b)
				if merr != nil {
					return nil, false, merr
				}
				built = &modelSet{models: []*Model{m}, baseRes: m.BaseResources}
			}
			if s.store != nil {
				// Spill best-effort: a full disk must not fail the tune.
				if serr := s.store.save(key, built); serr == nil && rec != nil {
					_ = s.measureStore.SaveSet(key.artifactID(), rec.Keys())
				}
			}
			return built, true, nil
		})
		if modelSpan != nil {
			switch {
			case err != nil:
				modelSpan.Set(obs.Bool("error", true))
			case shared:
				modelSpan.Set(obs.String("source", "shared"))
			case fromDisk.Load():
				modelSpan.Set(obs.String("source", "disk"))
			default:
				modelSpan.Set(obs.String("source", "build"))
			}
			if err == nil {
				modelSpan.Set(obs.Int("models", int64(len(set.models))))
			}
		}
		modelSpan.End()
		if err != nil {
			return nil, err
		}
		if shared || fromDisk.Load() {
			// The build's measurements were already performed (by an
			// earlier request, a concurrent one we joined, or a finished
			// incarnation whose artifact we loaded): account them to this
			// request's progress in one step.
			prog.jump(1 + space.Len())
		} else {
			ownBuild = true
		}
	}

	if phased {
		_, solveSpan := obs.Start(ctx, "solve")
		solveSpan.Set(obs.Int("solves", int64(len(set.models))))
		rep, err := phaseReport(set, b, w, popts)
		solveSpan.End()
		if err != nil {
			return nil, err
		}
		// Replay and online adaptation run after the report is complete:
		// they consume the decision (schedule + per-phase recommendations)
		// and simulate directly, never through the measurement provider,
		// so the model cache and measurement store above are untouched.
		if req.Replay {
			rctx, replaySpan := obs.Start(ctx, "replay")
			err := attachReplay(rctx, rep, b, req, popts)
			replaySpan.End()
			if err != nil {
				return nil, err
			}
		}
		if req.Online {
			octx, onlineSpan := obs.Start(ctx, "online")
			err := attachOnline(octx, rep, b, req, popts)
			onlineSpan.End()
			if err != nil {
				return nil, err
			}
		}
		return rep, nil
	}

	model := set.models[0]
	_, solveSpan := obs.Start(ctx, "solve")
	rec, err := recommend(model, w)
	if solveSpan != nil {
		if err == nil {
			solveSpan.Set(obs.Int("nodes", int64(rec.SolverNodes)), obs.Bool("proven", rec.Proven))
		}
		solveSpan.End()
	}
	if err != nil {
		return nil, err
	}
	var val *Validation
	if !req.SkipValidation {
		vctx := ctx
		if ownBuild {
			vctx = scoped
		}
		vctx, valSpan := obs.Start(vctx, "validate")
		val, err = tn.validate(vctx, b, model, rec)
		valSpan.End()
		if err != nil {
			return nil, err
		}
	}
	return tuneReport(model, rec, val, req.IncludeModel), nil
}

// TuneBatch runs a batch of requests through the session sequentially
// and returns their reports in order. The point of batching at the
// session level is the shared model layer: requests differing only in
// weights hit the model built by the first one, so an N-weighting batch
// performs one model build (the ~52 measurements) and N solves. Any
// item failing fails the batch — partial batches would silently
// misalign the caller's request↔report pairing.
func (s *Session) TuneBatch(ctx context.Context, reqs []Request) ([]*Report, error) {
	ctx, span := obs.Start(ctx, "batch")
	if span != nil {
		span.Set(obs.Int("items", int64(len(reqs))))
		defer span.End()
	}
	out := make([]*Report, len(reqs))
	for i, req := range reqs {
		rep, err := s.Tune(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("core: batch item %d (%s): %w", i, req.App, err)
		}
		out[i] = rep
	}
	return out, nil
}

// workers resolves the request's measurement parallelism against the
// session default.
func (r Request) workers(sessionDefault int) int {
	if r.Workers > 0 {
		return r.Workers
	}
	return sessionDefault
}

// tuneTotal is the expected measurement count of a request — the Total
// of its progress: the base run plus one per decision variable, plus
// the validation run for plain runs. A pre-built model needs no
// measurements beyond its validation.
func tuneTotal(space *config.Space, req Request) int {
	validations := 0
	if req.Phases == nil && !req.SkipValidation {
		validations = 1
	}
	if req.Model != nil {
		return validations
	}
	return 1 + space.Len() + validations
}

// progressCounter tracks a request's completed measurements and
// forwards them to its observer.
type progressCounter struct {
	obs   Observer
	total int
	done  atomic.Int64
}

// step accounts one completed measurement.
func (p *progressCounter) step() {
	d := int(p.done.Add(1))
	if p.obs != nil {
		p.obs.TuneProgress(d, p.total)
	}
}

// jump raises the completed count to at least n (model-layer hits
// satisfy a whole build's worth of measurements at once).
func (p *progressCounter) jump(n int) {
	for {
		cur := p.done.Load()
		if cur >= int64(n) {
			return
		}
		if p.done.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	if p.obs != nil {
		p.obs.TuneProgress(n, p.total)
	}
}

// modelKey identifies a built model set in the shared model layer. Two
// requests with equal keys measure identical single-change
// configurations and therefore build identical models — the program
// image (SHA-256), decision space (fingerprint), workload scale, sample
// truncation and, for phase runs, the interval length and detection
// threshold all participate; the objective weights deliberately do not
// (models are weight-independent, which is the whole point of sharing).
type modelKey struct {
	prog      string
	space     string
	scale     workload.Scale
	sample    uint64
	interval  uint64
	threshold float64
}

// modelSet is one cached build: the whole-program model, and for phase
// runs the per-phase models plus the detection artifacts the report
// needs (models[1+p] is phase p's).
type modelSet struct {
	done chan struct{}
	err  error

	models       []*Model
	baseRes      fpga.Resources
	trace        *phase.Trace
	baseProfiles []phase.Profile
}

// ModelCacheStats is a point-in-time snapshot of a session's model
// layer.
type ModelCacheStats struct {
	// Hits counts requests answered by a resident (or in-flight) model
	// set; Misses the requests that had to initiate a build.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Builds counts the model builds that actually completed — with N
	// weightings of one application, Builds stays at 1 while Hits grows.
	// A model set loaded from the durable tier does NOT count as a build.
	Builds uint64 `json:"builds"`
	// Entries is the current resident set count, Capacity the bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// DiskHits counts model sets answered by the durable tier's on-disk
	// artifacts, DiskMisses the lookups that fell through to a build, and
	// Spills the completed builds written out. All zero when the session
	// has no ModelStore.
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	DiskMisses uint64 `json:"disk_misses,omitempty"`
	Spills     uint64 `json:"spills,omitempty"`
}

// modelCache is the shared model layer: a bounded, singleflighted LRU
// of built model sets, mirroring measure.Cache one level up the stack.
// The first request of a given key builds through the session's tuner;
// concurrent same-key requests wait for that one build; later requests
// get the resident set. Failed builds are not cached, and a waiter
// whose flight owner was cancelled retries with its own live context.
type modelCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List                 // front = most recently used
	entries map[modelKey]*list.Element // value: *modelEntry
	hits    uint64
	misses  uint64
	builds  uint64
}

// modelEntry is one cache slot: the key rides along so eviction can
// unmap in O(1).
type modelEntry struct {
	key modelKey
	set *modelSet
}

func newModelCache(capacity int) *modelCache {
	if capacity <= 0 {
		capacity = DefaultModelCacheEntries
	}
	return &modelCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[modelKey]*list.Element),
	}
}

func (c *modelCache) stats() ModelCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ModelCacheStats{
		Hits:     c.hits,
		Misses:   c.misses,
		Builds:   c.builds,
		Entries:  c.ll.Len(),
		Capacity: c.cap,
	}
}

// get returns the model set for key, building it with build on a miss.
// shared is true when the set came from the cache (resident or joined
// in-flight) — i.e. this caller performed no measurements. build
// additionally reports whether it actually performed a build (false
// when it answered from the durable tier), which is what keeps Builds
// an honest count of measurement work.
func (c *modelCache) get(ctx context.Context, key modelKey, build func() (*modelSet, bool, error)) (set *modelSet, shared bool, err error) {
	for {
		set, shared, err, retry := c.getOnce(ctx, key, build)
		if retry && ctx.Err() == nil {
			continue
		}
		return set, shared, err
	}
}

// getOnce performs one lookup-or-build round. retry is true when the
// caller waited on another caller's flight that failed with that
// owner's context error.
func (c *modelCache) getOnce(ctx context.Context, key modelKey, build func() (*modelSet, bool, error)) (set *modelSet, shared bool, err error, retry bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		ent := el.Value.(*modelEntry).set
		c.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, false, ctx.Err(), false
		}
		if ent.err != nil {
			retry := errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded)
			return nil, false, ent.err, retry
		}
		return ent, true, nil, false
	}
	c.misses++
	ent := &modelSet{done: make(chan struct{})}
	c.entries[key] = c.ll.PushFront(&modelEntry{key: key, set: ent})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		delete(c.entries, c.ll.Remove(el).(*modelEntry).key)
	}
	c.mu.Unlock()

	built, didBuild, err := build()
	if err == nil {
		ent.models = built.models
		ent.baseRes = built.baseRes
		ent.trace = built.trace
		ent.baseProfiles = built.baseProfiles
	} else {
		ent.err = err
		// Do not memoize failures: drop the key so the next request
		// retries (the entry may already have been evicted — fine).
		c.mu.Lock()
		if el, ok := c.entries[key]; ok && el.Value.(*modelEntry).set == ent {
			c.ll.Remove(el)
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	if err == nil && didBuild {
		c.mu.Lock()
		c.builds++
		c.mu.Unlock()
	}
	close(ent.done)
	if err != nil {
		return nil, false, err, false
	}
	return ent, false, nil, false
}

// buildPhaseSet performs the measurement half of a phase-aware run:
// profile the base run in intervals, detect phases, and build the
// whole-program model plus one model per phase from one
// interval-profiled run per configuration. The result is
// weight-independent, which is what makes it cacheable in the shared
// model layer.
func (t *tuner) buildPhaseSet(ctx context.Context, b *progs.Benchmark, opts PhaseOptions) (*modelSet, error) {
	baseRep, baseRes, err := t.run(ctx, b, config.Default(), opts.IntervalInstructions)
	if err != nil {
		return nil, fmt.Errorf("core: base measurement: %w", err)
	}
	_, detectSpan := obs.Start(ctx, "phase.detect")
	trace := phase.Detect(baseRep.Intervals, opts.IntervalInstructions, phase.Options{Threshold: opts.Threshold})
	if detectSpan != nil {
		detectSpan.Set(
			obs.Int("phases", int64(trace.Phases)),
			obs.Int("segments", int64(len(trace.Segments))))
		detectSpan.End()
	}
	base := resolveObservation(baseRep, baseRes, trace)

	models, err := t.buildModels(ctx, b, opts.IntervalInstructions, trace, base)
	if err != nil {
		return nil, err
	}
	return &modelSet{
		models:       models,
		baseRes:      baseRes,
		trace:        trace,
		baseProfiles: trace.Profiles(baseRep.Intervals),
	}, nil
}

// phaseReport performs the decision half of a phase-aware run: solve
// the whole-program model and every per-phase model under the request's
// weights, lay the per-phase schedule over the trace — charging each
// transition for the configuration parameters it actually changes — and
// weigh it against the whole-program recommendation.
func phaseReport(set *modelSet, b *progs.Benchmark, w Weights, opts PhaseOptions) (*Report, error) {
	trace := set.trace
	space := set.models[0].Space
	wholeRec, err := recommend(set.models[0], w)
	if err != nil {
		return nil, err
	}

	block := &PhaseBlock{
		IntervalInstructions: opts.IntervalInstructions,
		SwitchPenaltyCycles:  opts.SwitchPenaltyCycles,
		Trace:                trace,
	}
	recs := make([]*Recommendation, trace.Phases)
	var perPhase float64
	for p := 0; p < trace.Phases; p++ {
		rec, err := recommend(set.models[1+p], w)
		if err != nil {
			return nil, fmt.Errorf("core: solving phase %d: %w", p, err)
		}
		recs[p] = rec
		prof := set.baseProfiles[p]
		block.Recommendations = append(block.Recommendations, PhaseRecommendation{
			Phase:          p,
			Intervals:      prof.Intervals,
			Instructions:   prof.Instructions,
			BaseCycles:     prof.Cycles,
			Recommendation: recommendationReport(rec),
		})
		perPhase += rec.Predicted.RuntimeCycles
	}

	prevPhase := -1
	for i, seg := range trace.Segments {
		entry := ScheduleEntry{
			Phase:  seg.Phase,
			Start:  seg.Start,
			End:    seg.End,
			Config: recs[seg.Phase].Config.String(),
		}
		if i > 0 {
			changed := changedParams(space, recs[prevPhase].Selection, recs[seg.Phase].Selection)
			if changed > 0 {
				entry.Switch = true
				entry.ChangedVars = changed
				entry.SwitchCostCycles = switchCost(opts.SwitchPenaltyCycles, changed)
				block.Switches++
				block.SwitchCostCycles += entry.SwitchCostCycles
			}
		}
		block.Schedule = append(block.Schedule, entry)
		prevPhase = seg.Phase
	}

	block.PerPhaseCycles = perPhase + float64(block.SwitchCostCycles)
	block.WholeProgramCycles = wholeRec.Predicted.RuntimeCycles
	block.PerPhaseWins = block.PerPhaseCycles < block.WholeProgramCycles
	if block.WholeProgramCycles > 0 {
		block.SavingsPct = 100 * (block.WholeProgramCycles - block.PerPhaseCycles) / block.WholeProgramCycles
	}

	return &Report{
		App:            b.Name,
		Scale:          set.models[0].Scale.String(),
		SpaceVars:      space.Len(),
		Weights:        w,
		Base:           baseCostPoint(set.models[0].BaseCycles, set.baseRes),
		Recommendation: recommendationReport(wholeRec),
		Phases:         block,
		Artifacts: &Artifacts{
			Model:                set.models[0],
			Recommendation:       wholeRec,
			PhaseModels:          set.models[1:],
			PhaseRecommendations: recs,
		},
	}, nil
}

// switchCost prices one reconfiguration transition: penalty is the
// cycle cost of a full reshape (every parameter group rewritten), and a
// transition rewriting changed of the configuration's
// config.ParameterGroups() groups is charged that share of it, rounded
// to the nearest cycle — partial reconfiguration rewrites less fabric
// and costs proportionally less.
func switchCost(penalty uint64, changed int) uint64 {
	groups := uint64(config.ParameterGroups())
	return (penalty*uint64(changed) + groups/2) / groups
}

// changedParams counts the configuration parameters whose value differs
// between two selections over the same space: for every at-most-one
// group, the selected member (or "keep base") must match, else that
// parameter is rewritten at the reconfiguration boundary. This is the
// per-transition granularity the schedule's partial-reconfiguration
// cost is charged at.
func changedParams(space *config.Space, a, b []bool) int {
	selected := func(sel []bool, members []int) int {
		for _, i := range members {
			if i < len(sel) && sel[i] {
				return i
			}
		}
		return -1
	}
	changed := 0
	for _, members := range space.Groups() {
		if selected(a, members) != selected(b, members) {
			changed++
		}
	}
	return changed
}
