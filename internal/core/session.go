package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"liquidarch/internal/config"
	"liquidarch/internal/fpga"
	"liquidarch/internal/measure"
	"liquidarch/internal/memo"
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
	provider measure.Provider
	workers  int
	models   *memo.Cache[modelKey, *modelSet]
	builds   atomic.Uint64 // model builds completed (disk loads excluded)
	store    *ModelStore
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
	// Deprecated: ignored. A planned build's measurements are read back
	// as one set record, which the store's GC evicts as a unit of its
	// own, so the session no longer names them to the store.
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
	capacity := opts.ModelCacheEntries
	if capacity <= 0 {
		capacity = DefaultModelCacheEntries
	}
	return &Session{
		provider: p,
		workers:  opts.Workers,
		models:   memo.New[modelKey, *modelSet](capacity),
		store:    opts.ModelStore,
	}
}

// Provider returns the session's measurement provider, so sibling
// measurement fan-outs (exhaustive sweeps, custom validations) share
// the session's cache stack.
func (s *Session) Provider() measure.Provider { return s.provider }

// ModelStats returns a snapshot of the shared model layer's counters,
// including the durable tier's disk traffic when a ModelStore is wired.
func (s *Session) ModelStats() ModelCacheStats {
	ms := s.models.Stats()
	st := ModelCacheStats{
		Hits:     ms.Hits,
		Misses:   ms.Misses,
		Builds:   s.builds.Load(),
		Entries:  ms.Entries,
		Capacity: ms.Capacity,
	}
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
		fromDisk := false
		var out memo.Outcome
		set, out, err = s.models.Do(mctx, key, func() (*modelSet, error) {
			// Disk before rebuild: a completed build spilled by an earlier
			// incarnation (or a sibling replica) answers the miss without
			// a single measurement — and without counting as a build.
			if s.store != nil {
				if ds, ok := s.store.load(key); ok {
					fromDisk = true
					return ds, nil
				}
			}
			var built *modelSet
			if phased {
				ps, perr := tn.buildPhaseSet(mctx, b, popts)
				if perr != nil {
					return nil, perr
				}
				built = ps
			} else {
				m, merr := tn.buildModel(mctx, b)
				if merr != nil {
					return nil, merr
				}
				built = &modelSet{models: []*Model{m}, baseRes: m.BaseResources}
			}
			if s.store != nil {
				// Spill best-effort: a full disk must not fail the tune.
				_ = s.store.save(key, built)
			}
			s.builds.Add(1)
			return built, nil
		})
		shared := out != memo.Miss
		if modelSpan != nil {
			switch {
			case err != nil:
				modelSpan.Set(obs.Bool("error", true))
			case shared:
				modelSpan.Set(obs.String("source", "shared"))
			case fromDisk:
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
		if shared || fromDisk {
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
		// When this request built the model they run under its trace
		// scope and are timed from its recording. They run one after the
		// other: their spans make one stage.
		rctx := ctx
		if ownBuild {
			rctx = scoped
		}
		if req.Replay {
			rctx, replaySpan := obs.Start(rctx, "replay")
			err := attachReplay(rctx, rep, b, req, popts)
			replaySpan.End()
			if err != nil {
				return nil, err
			}
		}
		if req.Online {
			octx, onlineSpan := obs.Start(rctx, "online")
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

// buildPhaseSet performs the measurement half of a phase-aware run:
// profile the base run in intervals, detect phases, and build the
// whole-program model plus one model per phase from one
// interval-profiled run per configuration. The result is
// weight-independent, which is what makes it cacheable in the shared
// model layer.
func (t *tuner) buildPhaseSet(ctx context.Context, b *progs.Benchmark, opts PhaseOptions) (*modelSet, error) {
	runs, err := t.measureModel(ctx, b, opts.IntervalInstructions)
	if err != nil {
		return nil, err
	}
	_, detectSpan := obs.Start(ctx, "phase.detect")
	trace := phase.Detect(runs.base.Intervals, opts.IntervalInstructions, phase.Options{Threshold: opts.Threshold})
	if detectSpan != nil {
		detectSpan.Set(
			obs.Int("phases", int64(trace.Phases)),
			obs.Int("segments", int64(len(trace.Segments))))
		detectSpan.End()
	}
	models, err := t.buildModels(b, runs, trace)
	if err != nil {
		return nil, err
	}
	return &modelSet{
		models:       models,
		baseRes:      runs.baseRes,
		trace:        trace,
		baseProfiles: trace.Profiles(runs.base.Intervals),
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
