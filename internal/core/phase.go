package core

import (
	"context"
	"fmt"

	"liquidarch/internal/config"
	"liquidarch/internal/fpga"
	"liquidarch/internal/measure"
	"liquidarch/internal/phase"
	"liquidarch/internal/platform"
	"liquidarch/internal/power"
	"liquidarch/internal/progs"
)

// Phase-aware tuning: the paper tunes one configuration per application;
// this mode tunes one per detected execution phase and decides — under
// an explicit reconfiguration-cost model — whether switching
// configurations at phase boundaries beats the single whole-program
// recommendation.
//
// The measurement cost is the same as a whole-program model build: every
// single-change configuration is simulated once with interval profiling
// on, and each run's per-interval deltas are summed per phase (the
// partition aligns across configurations because interval boundaries are
// instruction counts). One set of runs therefore feeds the whole-program
// model and every per-phase model, and the runs share the measurement
// provider's cache/store keyed by (program, timing config, interval).
// The built models are weight-independent and live in the session's
// shared model layer (session.go); the decision half — per-phase solves,
// the schedule and its per-transition switch costs — runs per request.

// DefaultIntervalInstructions is the profiling interval length used when
// a caller does not choose one: fine enough to split the benchmark
// kernels' phases at every workload scale, coarse enough that the
// per-interval snapshots stay negligible next to the simulation.
const DefaultIntervalInstructions = 50_000

// DefaultSwitchPenaltyCycles prices a full runtime reconfiguration —
// every parameter group of the configuration rewritten. 25 000 cycles
// is 1 ms at the platform's 25 MHz clock, the order of a full FPGA
// partial-reconfiguration pass. A schedule transition rewriting only k
// of the configuration's config.ParameterGroups() groups is charged the
// proportional share k/G of this penalty, so small reshapes (a lone
// dcache line-size flip) are priced well under the full millisecond.
const DefaultSwitchPenaltyCycles = 25_000

// PhaseOptions configures phase-aware tuning. Zero values select the
// defaults.
type PhaseOptions struct {
	// IntervalInstructions is the profiling interval length.
	IntervalInstructions uint64 `json:"interval_instructions,omitempty"`
	// SwitchPenaltyCycles is the cycle cost of a full reconfiguration;
	// each schedule transition is charged the share of it proportional
	// to how many configuration parameters it actually changes.
	SwitchPenaltyCycles uint64 `json:"switch_penalty_cycles,omitempty"`
	// Threshold overrides the phase-detection clustering threshold
	// (phase.DefaultThreshold) when > 0.
	Threshold float64 `json:"threshold,omitempty"`
}

// normalized fills in the option defaults.
func (o PhaseOptions) normalized() PhaseOptions {
	if o.IntervalInstructions == 0 {
		o.IntervalInstructions = DefaultIntervalInstructions
	}
	if o.SwitchPenaltyCycles == 0 {
		o.SwitchPenaltyCycles = DefaultSwitchPenaltyCycles
	}
	return o
}

// threshold resolves the effective detection threshold (for model-cache
// keying; phase.Detect applies the same default).
func (o PhaseOptions) threshold() float64 {
	if o.Threshold > 0 {
		return o.Threshold
	}
	return phase.DefaultThreshold
}

// phaseObservation is one configuration's measured cost, resolved per
// model: index 0 is the whole program, index 1+p is phase p.
type phaseObservation struct {
	cycles []uint64
	energy []power.Estimate
	res    fpga.Resources
}

// resolveObservation folds one interval-profiled run into per-model
// costs under trace — the one place the whole-program/per-phase index
// convention and the per-phase energy model live.
func resolveObservation(rep *platform.RunReport, res fpga.Resources, trace *phase.Trace) phaseObservation {
	obs := phaseObservation{
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

// observePhases measures cfg once with interval profiling and resolves
// the report into whole-program and per-phase costs under trace.
func (t *Tuner) observePhases(ctx context.Context, b *progs.Benchmark, cfg config.Config, interval uint64, trace *phase.Trace) (phaseObservation, error) {
	prog, err := b.Assemble(t.Scale)
	if err != nil {
		return phaseObservation{}, err
	}
	res, err := fpga.Synthesize(cfg)
	if err != nil {
		return phaseObservation{}, err
	}
	opts := platform.Options{
		SampleInstructions:   t.SampleInstructions,
		IntervalInstructions: interval,
	}
	rep, err := t.provider().Measure(ctx, prog, cfg, opts)
	if err != nil {
		return phaseObservation{}, err
	}
	if !rep.Sampled && rep.ExitCode != 0 {
		return phaseObservation{}, fmt.Errorf("core: %s exited with code %d", b.Name, rep.ExitCode)
	}
	return resolveObservation(rep, res, trace), nil
}

// buildPhaseModels measures every decision variable once (interval
// profiled, companion-paired exactly like BuildModel) and assembles
// 1+trace.Phases models over the shared observations: models[0] is the
// whole-program model, models[1+p] phase p's.
func (t *Tuner) buildPhaseModels(ctx context.Context, b *progs.Benchmark, interval uint64, trace *phase.Trace, base phaseObservation) ([]*Model, error) {
	space := t.space()
	baseCfg := config.Default()
	vars := space.Vars()
	obs := make([]phaseObservation, len(vars))

	ordinary, deferredVars, err := planSpace(space)
	if err != nil {
		return nil, err
	}

	measureVars := func(indices []int, cfgFor func(config.Var) config.Config) error {
		return measure.ForEach(ctx, len(indices), t.Workers, func(k int) error {
			i := indices[k]
			o, err := t.observePhases(ctx, b, cfgFor(vars[i]), interval, trace)
			if err != nil {
				return fmt.Errorf("core: measuring %s: %w", vars[i].Name, err)
			}
			obs[i] = o
			return nil
		})
	}

	if err := measureVars(ordinary, func(v config.Var) config.Config { return v.Apply(baseCfg) }); err != nil {
		return nil, err
	}

	// Replacement-policy variables: measured on top of their companion's
	// configuration, attributed against the companion's observation.
	byName := make(map[string]int, len(vars))
	for i, v := range vars {
		byName[v.Name] = i
	}
	var phase2 []int
	for _, d := range deferredVars {
		phase2 = append(phase2, d.index)
	}
	if err := measureVars(phase2, func(v config.Var) config.Config {
		companion, _ := companionFor(v)
		compVar, _ := space.ByName(companion)
		return v.Apply(compVar.Apply(baseCfg))
	}); err != nil {
		return nil, err
	}

	refFor := func(i int) (phaseObservation, error) {
		if companion, ok := companionFor(vars[i]); ok {
			ci, found := byName[companion]
			if !found || obs[ci].cycles == nil {
				return phaseObservation{}, fmt.Errorf("core: companion %s not measured", companion)
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
			Scale:         t.Scale,
			Space:         space,
			BaseCycles:    base.cycles[m],
			BaseResources: base.res,
			BaseEnergy:    base.energy[m],
			Entries:       entries,
		}
	}
	return models, nil
}

// TunePhases runs phase-aware tuning end to end through a one-shot
// Session carrying the tuner's configuration.
//
// Deprecated: build a Session once and call Tune with Request.Phases
// set — repeated runs then share one model build through the session's
// model layer.
func (t *Tuner) TunePhases(ctx context.Context, b *progs.Benchmark, w Weights, opts PhaseOptions) (*Report, error) {
	s := NewSession(SessionOptions{
		Provider:      t.provider(),
		Workers:       t.Workers,
		SolverOptions: t.SolverOptions,
	})
	return s.Tune(ctx, Request{
		App:                b.Name,
		Scale:              t.Scale,
		Space:              t.Space,
		Weights:            w,
		SampleInstructions: t.SampleInstructions,
		Phases:             &opts,
	})
}

// recommendationReport serializes a Recommendation (shared with
// NewTuneReport's construction).
func recommendationReport(rec *Recommendation) RecommendationReport {
	return RecommendationReport{
		Changes:     append([]string{}, rec.Changes...),
		Config:      rec.Config.String(),
		Predicted:   rec.Predicted,
		Objective:   rec.Objective,
		SolverNodes: rec.SolverNodes,
		Proven:      rec.Proven,
	}
}
