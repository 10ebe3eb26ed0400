package core

import (
	"context"
	"fmt"

	"liquidarch/internal/binlp"
	"liquidarch/internal/config"
	"liquidarch/internal/fpga"
	"liquidarch/internal/measure"
	"liquidarch/internal/platform"
	"liquidarch/internal/power"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// Tuner is the measurement-and-solve engine behind the unified
// pipeline: BuildModel, RecommendFromModel and Validate are the
// building blocks Session.Tune composes. Constructing a Tuner directly
// still works, but new code should describe the run as a core.Request
// and call Session.Tune — requests then share the session's model
// layer and progress surface.
type Tuner struct {
	// Space is the decision-variable space; nil means the full 52-variable
	// paper space.
	Space *config.Space
	// Scale selects the workload size. The zero value is workload.Tiny
	// (NewTuner takes the scale explicitly); unlike the daemon's
	// JobRequest.Scale, which defaults to "small", nothing upgrades it.
	Scale workload.Scale
	// Workers bounds the parallel measurement runs (default GOMAXPROCS).
	Workers int
	// Provider supplies the measurements; nil means the process-wide
	// shared bounded cache over the simulator (measure.Default()). A
	// serving system injects its own stack here so concurrent tuning jobs
	// share one cache.
	Provider measure.Provider
	// SolverOptions tunes the BINLP solver.
	SolverOptions binlp.Options
	// SampleInstructions, when nonzero, truncates every measurement run
	// after that many instructions (the paper's future-work "runtime
	// sampling" for long applications). Because the instruction stream is
	// configuration-independent, equal-length prefixes stay directly
	// comparable; accuracy is limited only by phase behaviour beyond the
	// sample.
	SampleInstructions uint64
}

// NewTuner returns a tuner over the full paper space at the given scale.
func NewTuner(scale workload.Scale) *Tuner {
	return &Tuner{Space: config.FullSpace(), Scale: scale}
}

func (t *Tuner) space() *config.Space {
	if t.Space == nil {
		return config.FullSpace()
	}
	return t.Space
}

func (t *Tuner) provider() measure.Provider {
	if t.Provider != nil {
		return t.Provider
	}
	return measure.Default()
}

// measurement is one build-and-run observation.
type measurement struct {
	cycles uint64
	res    fpga.Resources
	energy power.Estimate
}

// measure runs the application once on cfg and synthesizes it. The
// assembled program is memoized per (benchmark, scale) by package progs,
// and the simulation goes through the tuner's measurement provider (by
// default the process-wide shared bounded cache), so the ~52 single-change
// jobs of BuildModel, the figure harnesses and validation all share
// identical (program, timing-config) runs.
func (t *Tuner) measure(ctx context.Context, b *progs.Benchmark, cfg config.Config) (measurement, error) {
	prog, err := b.Assemble(t.Scale)
	if err != nil {
		return measurement{}, err
	}
	res, err := fpga.Synthesize(cfg)
	if err != nil {
		return measurement{}, err
	}
	opts := platform.Options{SampleInstructions: t.SampleInstructions}
	rep, err := t.provider().Measure(ctx, prog, cfg, opts)
	if err != nil {
		return measurement{}, err
	}
	if !rep.Sampled && rep.ExitCode != 0 {
		return measurement{}, fmt.Errorf("core: %s exited with code %d", b.Name, rep.ExitCode)
	}
	return measurement{
		cycles: rep.Cycles(),
		res:    res,
		energy: power.Model(rep.Stats, rep.ICache, rep.DCache, res),
	}, nil
}

// companionFor returns, for a replacement-policy variable that is invalid
// stand-alone on the 1-way base cache, the minimal companion change (the
// matching sets=2 variable) it must be paired with for measurement, or
// false for ordinary variables.
func companionFor(v config.Var) (string, bool) {
	switch v.Name {
	case "icachreplace=LRR", "icachreplace=LRU":
		return "icachsets=2", true
	case "dcachreplace=LRR", "dcachreplace=LRU":
		return "dcachsets=2", true
	}
	return "", false
}

// deferredVar is a variable whose measurement rides on a companion
// configuration (companionFor) and is attributed against the
// companion's own measurement.
type deferredVar struct {
	index     int
	companion string
}

// planSpace partitions a space's variables into the ordinary
// single-change measurements and the companion-paired deferred ones,
// validating that every required companion is present. Shared by
// BuildModel and the per-phase model builder so the pairing rules live
// in one place.
func planSpace(space *config.Space) (ordinary []int, deferred []deferredVar, err error) {
	for i, v := range space.Vars() {
		if companion, ok := companionFor(v); ok {
			if _, exists := space.ByName(companion); !exists {
				return nil, nil, fmt.Errorf("core: variable %s needs companion %s, absent from the space", v.Name, companion)
			}
			deferred = append(deferred, deferredVar{index: i, companion: companion})
			continue
		}
		ordinary = append(ordinary, i)
	}
	return ordinary, deferred, nil
}

// BuildModel performs the paper's Section 3 procedure: measure the base,
// then every single-change configuration (and, for the replacement-policy
// variables that LEON forbids on a 1-way cache, the minimal companion
// pair sets=2 + policy, attributing the difference over the sets=2
// measurement). Measurements run in parallel on the shared worker pool;
// results are deterministic. Cancelling ctx aborts the build promptly
// (between measurement runs) with the context's error.
func (t *Tuner) BuildModel(ctx context.Context, b *progs.Benchmark) (*Model, error) {
	space := t.space()
	baseCfg := config.Default()

	baseMeas, err := t.measure(ctx, b, baseCfg)
	if err != nil {
		return nil, fmt.Errorf("core: base measurement: %w", err)
	}

	type job struct {
		index int
		cfg   config.Config
		// ref holds the values the deltas are computed against (base, or
		// the companion's measurement).
		ref measurement
	}

	vars := space.Vars()
	entries := make([]Entry, len(vars))

	// Phase 1: ordinary variables (companion-paired ones are deferred).
	ordinary, deferredVars, err := planSpace(space)
	if err != nil {
		return nil, err
	}
	var jobs []job
	for _, i := range ordinary {
		jobs = append(jobs, job{index: i, cfg: vars[i].Apply(baseCfg)})
	}

	runJobs := func(js []job) error {
		return measure.ForEach(ctx, len(js), t.Workers, func(i int) error {
			j := js[i]
			meas, err := t.measure(ctx, b, j.cfg)
			if err != nil {
				return fmt.Errorf("core: measuring %s: %w", vars[j.index].Name, err)
			}
			e := &entries[j.index]
			e.Var = vars[j.index]
			e.Cycles = meas.cycles
			e.Resources = meas.res
			e.Energy = meas.energy
			e.Rho = 100 * (float64(meas.cycles) - float64(j.ref.cycles)) / float64(j.ref.cycles)
			e.Lambda = meas.res.LUTPercent() - j.ref.res.LUTPercent()
			e.Beta = meas.res.BRAMPercent() - j.ref.res.BRAMPercent()
			e.Epsilon = power.DeltaPercent(meas.energy, j.ref.energy)
			return nil
		})
	}

	for i := range jobs {
		jobs[i].ref = baseMeas
	}
	if err := runJobs(jobs); err != nil {
		return nil, err
	}

	// Phase 2: replacement-policy variables measured against their
	// companion's (already measured) configuration.
	var phase2 []job
	for _, d := range deferredVars {
		v := vars[d.index]
		compVar, _ := space.ByName(d.companion)
		var compEntry *Entry
		for k := range entries {
			if entries[k].Var.Name == d.companion {
				compEntry = &entries[k]
				break
			}
		}
		if compEntry == nil || compEntry.Cycles == 0 {
			return nil, fmt.Errorf("core: companion %s not measured", d.companion)
		}
		cfg := compVar.Apply(baseCfg)
		cfg = v.Apply(cfg)
		phase2 = append(phase2, job{
			index: d.index,
			cfg:   cfg,
			ref: measurement{
				cycles: compEntry.Cycles,
				res:    compEntry.Resources,
				energy: compEntry.Energy,
			},
		})
	}
	if err := runJobs(phase2); err != nil {
		return nil, err
	}

	return &Model{
		App:           b.Name,
		Scale:         t.Scale,
		Space:         space,
		BaseCycles:    baseMeas.cycles,
		BaseResources: baseMeas.res,
		BaseEnergy:    baseMeas.energy,
		Entries:       entries,
	}, nil
}

// Recommendation is the tuner's output for one application and weighting.
type Recommendation struct {
	// App names the application.
	App string
	// Weights are the objective weights used.
	Weights Weights
	// Selection is the solver's assignment, in space order.
	Selection []bool
	// Changes lists the selected parameter changes.
	Changes []string
	// Config is the recommended configuration.
	Config config.Config
	// Predicted is the optimizer's cost approximation.
	Predicted Prediction
	// Objective is the solved objective value.
	Objective float64
	// SolverNodes and Proven report solver effort and optimality proof.
	SolverNodes int
	Proven      bool
}

// Recommend runs the full flow: build the model, formulate, solve, decode.
//
// Deprecated: build a Session and call Tune — repeated runs then share
// one model build through the session's model layer.
func (t *Tuner) Recommend(ctx context.Context, b *progs.Benchmark, w Weights) (*Recommendation, *Model, error) {
	model, err := t.BuildModel(ctx, b)
	if err != nil {
		return nil, nil, err
	}
	rec, err := t.RecommendFromModel(model, w)
	if err != nil {
		return nil, nil, err
	}
	return rec, model, nil
}

// RecommendFromModel solves an already-built model under the given
// weights (models are reused across weightings, as the paper does).
func (t *Tuner) RecommendFromModel(m *Model, w Weights) (*Recommendation, error) {
	problem := m.Formulate(w)
	sol, err := binlp.Solve(problem, t.SolverOptions)
	if err != nil {
		return nil, fmt.Errorf("core: solving: %w", err)
	}
	cfg, err := m.Space.Decode(sol.X)
	if err != nil {
		return nil, fmt.Errorf("core: decoding solution: %w", err)
	}
	var changes []string
	for i, on := range sol.X {
		if on {
			changes = append(changes, m.Space.Vars()[i].Name)
		}
	}
	return &Recommendation{
		App:         m.App,
		Weights:     w,
		Selection:   sol.X,
		Changes:     changes,
		Config:      cfg,
		Predicted:   m.Predict(sol.X),
		Objective:   sol.Objective,
		SolverNodes: sol.Nodes,
		Proven:      sol.Proven,
	}, nil
}

// Validation is the paper's "actual synthesis" row: the recommended
// configuration actually built and run.
type Validation struct {
	Cycles     uint64
	Resources  fpga.Resources
	Energy     power.Estimate
	RuntimePct float64 // delta over base, percent
	EnergyPct  float64 // delta over base, percent
}

// Validate builds and runs the recommendation for real.
func (t *Tuner) Validate(ctx context.Context, b *progs.Benchmark, m *Model, rec *Recommendation) (*Validation, error) {
	meas, err := t.measure(ctx, b, rec.Config)
	if err != nil {
		return nil, fmt.Errorf("core: validating: %w", err)
	}
	return &Validation{
		Cycles:     meas.cycles,
		Resources:  meas.res,
		Energy:     meas.energy,
		RuntimePct: 100 * (float64(meas.cycles) - float64(m.BaseCycles)) / float64(m.BaseCycles),
		EnergyPct:  power.DeltaPercent(meas.energy, m.BaseEnergy),
	}, nil
}
