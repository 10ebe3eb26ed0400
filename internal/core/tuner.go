package core

import (
	"context"
	"fmt"

	"liquidarch/internal/binlp"
	"liquidarch/internal/config"
	"liquidarch/internal/fpga"
	"liquidarch/internal/measure"
	"liquidarch/internal/phase"
	"liquidarch/internal/platform"
	"liquidarch/internal/power"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// tuner is the measurement half of one Session.Tune request: it
// measures through the request's provider stack and builds the
// perturbation models the solve and validation consume.
type tuner struct {
	space   *config.Space
	scale   workload.Scale
	workers int
	// provider supplies the measurements: the session's provider behind
	// the request's progress hook.
	provider measure.Provider
	// sample, when nonzero, truncates every measurement run after that
	// many instructions (the paper's future-work "runtime sampling" for
	// long applications). Because the instruction stream is
	// configuration-independent, equal-length prefixes stay directly
	// comparable; accuracy is limited only by phase behaviour beyond the
	// sample.
	sample uint64
}

// options are the run options of the tuner's measurements,
// interval-profiled when interval is nonzero.
func (t *tuner) options(interval uint64) platform.Options {
	return platform.Options{SampleInstructions: t.sample, IntervalInstructions: interval}
}

// run runs the application once on cfg, interval-profiled when interval
// is nonzero, and synthesizes cfg. The assembled program is memoized per
// (benchmark, scale) by package progs, and the simulation goes through
// the tuner's measurement provider, so the ~52 single-change runs of a
// model build, the figure harnesses and validation all share identical
// (program, timing-config) runs.
func (t *tuner) run(ctx context.Context, b *progs.Benchmark, cfg config.Config, interval uint64) (*platform.RunReport, fpga.Resources, error) {
	prog, err := b.Assemble(t.scale)
	if err != nil {
		return nil, fpga.Resources{}, err
	}
	res, err := fpga.Synthesize(cfg)
	if err != nil {
		return nil, fpga.Resources{}, err
	}
	rep, err := t.provider.Measure(ctx, prog, cfg, t.options(interval))
	if err != nil {
		return nil, fpga.Resources{}, err
	}
	if !rep.Sampled && rep.ExitCode != 0 {
		return nil, fpga.Resources{}, fmt.Errorf("core: %s exited with code %d", b.Name, rep.ExitCode)
	}
	return rep, res, nil
}

// observation is one configuration's measured cost, resolved per model:
// index 0 is the whole program, index 1+p is phase p.
type observation struct {
	cycles []uint64
	energy []power.Estimate
	res    fpga.Resources
}

// resolveObservation folds one run into per-model costs under trace —
// the one place the whole-program/per-phase index convention and the
// per-phase energy model live. A plain run resolves under an empty trace
// to the whole program alone.
func resolveObservation(rep *platform.RunReport, res fpga.Resources, trace *phase.Trace) observation {
	obs := observation{
		cycles: make([]uint64, 1+trace.Phases),
		energy: make([]power.Estimate, 1+trace.Phases),
		res:    res,
	}
	obs.cycles[0] = rep.Cycles()
	obs.energy[0] = power.Model(rep.Stats, rep.ICache, rep.DCache, res)
	for _, p := range trace.Profiles(rep.Intervals) {
		obs.cycles[1+p.Phase] = p.Cycles
		obs.energy[1+p.Phase] = power.Model(p.Stats, p.ICache, p.DCache, res)
	}
	return obs
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

// modelRuns are the measurements one model build consumes: the base run
// and one run per variable of the space, with their synthesized
// resources.
type modelRuns struct {
	base    *platform.RunReport
	baseRes fpga.Resources
	reps    []*platform.RunReport
	res     []fpga.Resources
}

// buildModel builds a plain run's whole-program model: buildModels over
// a trace with no phases.
func (t *tuner) buildModel(ctx context.Context, b *progs.Benchmark) (*Model, error) {
	runs, err := t.measureModel(ctx, b, 0)
	if err != nil {
		return nil, err
	}
	models, err := t.buildModels(b, runs, &phase.Trace{})
	if err != nil {
		return nil, err
	}
	return models[0], nil
}

// measureModel performs the measurements of the paper's Section 3
// procedure, interval-profiled at interval: the base and every
// single-change configuration, and, for the replacement-policy variables
// that LEON forbids on a 1-way cache, the minimal companion pair sets=2 +
// policy. It plans them on the request's trace scope and measures them in
// one round on the shared worker pool, the base first: while the base
// records, a second worker walks the dcache variants behind it
// (measure.Plan). Results are deterministic. Cancelling ctx aborts the
// build promptly (between measurement runs) with the context's error.
func (t *tuner) measureModel(ctx context.Context, b *progs.Benchmark, interval uint64) (*modelRuns, error) {
	space := t.space
	baseCfg := config.Default()
	vars := space.Vars()

	// A replacement-policy variable is measured on top of its companion's
	// configuration. That configuration comes from the space alone, so
	// every variable is measured in one round: only the attribution in
	// buildModels reads the companion's observation.
	for _, v := range vars {
		if companion, ok := companionFor(v); ok {
			if _, exists := space.ByName(companion); !exists {
				return nil, fmt.Errorf("core: variable %s needs companion %s, absent from the space", v.Name, companion)
			}
		}
	}
	cfgs := make([]config.Config, 1+len(vars))
	cfgs[0] = baseCfg
	for i, v := range vars {
		if companion, ok := companionFor(v); ok {
			compVar, _ := space.ByName(companion)
			cfgs[1+i] = v.Apply(compVar.Apply(baseCfg))
		} else {
			cfgs[1+i] = v.Apply(baseCfg)
		}
	}
	prog, err := b.Assemble(t.scale)
	if err != nil {
		return nil, fmt.Errorf("core: base measurement: %w", err)
	}
	measure.Plan(ctx, prog, t.options(interval), cfgs)

	reps := make([]*platform.RunReport, len(cfgs))
	res := make([]fpga.Resources, len(cfgs))
	var baseErr error
	err = measure.ForEach(ctx, len(cfgs), t.workers, func(i int) error {
		rep, r, err := t.run(ctx, b, cfgs[i], interval)
		switch {
		case err == nil:
			reps[i], res[i] = rep, r
			return nil
		case i == 0:
			baseErr = fmt.Errorf("core: base measurement: %w", err)
			return baseErr
		default:
			return fmt.Errorf("core: measuring %s: %w", vars[i-1].Name, err)
		}
	})
	// A failing base fails the build as such, whichever failure the pool
	// met first.
	if baseErr != nil {
		return nil, baseErr
	}
	if err != nil {
		return nil, err
	}
	return &modelRuns{base: reps[0], baseRes: res[0], reps: reps[1:], res: res[1:]}, nil
}

// buildModels assembles the paper's Section 3 models from a build's runs:
// 1+trace.Phases models over the shared observations, models[0] the
// whole-program model and models[1+p] phase p's. A replacement-policy
// variable's difference is attributed over its sets=2 companion's
// measurement, every other variable's over the base.
func (t *tuner) buildModels(b *progs.Benchmark, runs *modelRuns, trace *phase.Trace) ([]*Model, error) {
	space := t.space
	vars := space.Vars()
	base := resolveObservation(runs.base, runs.baseRes, trace)
	obs := make([]observation, len(vars))
	for i := range vars {
		obs[i] = resolveObservation(runs.reps[i], runs.res[i], trace)
	}

	// A replacement-policy variable is attributed against its companion's
	// observation, every other variable against the base.
	byName := make(map[string]int, len(vars))
	for i, v := range vars {
		byName[v.Name] = i
	}
	refFor := func(i int) (observation, error) {
		if companion, ok := companionFor(vars[i]); ok {
			ci, found := byName[companion]
			if !found || obs[ci].cycles == nil {
				return observation{}, fmt.Errorf("core: companion %s not measured", companion)
			}
			return obs[ci], nil
		}
		return base, nil
	}

	models := make([]*Model, 1+trace.Phases)
	for m := range models {
		entries := make([]Entry, len(vars))
		for i, v := range vars {
			ref, err := refFor(i)
			if err != nil {
				return nil, err
			}
			o := obs[i]
			e := &entries[i]
			e.Var = v
			e.Cycles = o.cycles[m]
			e.Resources = o.res
			e.Energy = o.energy[m]
			e.Rho = 100 * (float64(o.cycles[m]) - float64(ref.cycles[m])) / float64(ref.cycles[m])
			e.Lambda = o.res.LUTPercent() - ref.res.LUTPercent()
			e.Beta = o.res.BRAMPercent() - ref.res.BRAMPercent()
			e.Epsilon = power.DeltaPercent(o.energy[m], ref.energy[m])
		}
		models[m] = &Model{
			App:           b.Name,
			Scale:         t.scale,
			Space:         space,
			BaseCycles:    base.cycles[m],
			BaseResources: base.res,
			BaseEnergy:    base.energy[m],
			Entries:       entries,
		}
	}
	return models, nil
}

// Recommendation is the solver's output for one application and
// weighting.
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

// recommend solves a built model under the given weights (models are
// reused across weightings, as the paper does).
func recommend(m *Model, w Weights) (*Recommendation, error) {
	problem := m.Formulate(w)
	sol, err := binlp.Solve(problem, binlp.Options{})
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

// validate builds and runs the recommendation for real.
func (t *tuner) validate(ctx context.Context, b *progs.Benchmark, m *Model, rec *Recommendation) (*Validation, error) {
	rep, res, err := t.run(ctx, b, rec.Config, 0)
	if err != nil {
		return nil, fmt.Errorf("core: validating: %w", err)
	}
	energy := power.Model(rep.Stats, rep.ICache, rep.DCache, res)
	return &Validation{
		Cycles:     rep.Cycles(),
		Resources:  res,
		Energy:     energy,
		RuntimePct: 100 * (float64(rep.Cycles()) - float64(m.BaseCycles)) / float64(m.BaseCycles),
		EnergyPct:  power.DeltaPercent(energy, m.BaseEnergy),
	}, nil
}
