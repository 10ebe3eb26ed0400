package experiments

import (
	"context"
	"fmt"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/measure"
	"liquidarch/internal/workload"
)

// Options configures the experiment harnesses.
type Options struct {
	// Scale selects the workload size (default Small; the paper's
	// percentages are scale-stable by design).
	Scale workload.Scale
	// Workers bounds parallel measurement runs (default GOMAXPROCS).
	Workers int
}

// Runner regenerates the paper's tables through one core.Session, whose
// shared model layer keeps the expensive perturbation models resident so
// Figures 3-7 share measurements — and repeated weightings share model
// builds — exactly as the paper reuses one model per application across
// weightings.
type Runner struct {
	opts    Options
	session *core.Session
}

// NewRunner creates a runner; a zero Options value means Small scale.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:    opts,
		session: core.NewSession(core.SessionOptions{Workers: opts.Workers}),
	}
}

// Scale returns the configured workload scale.
func (r *Runner) Scale() workload.Scale { return r.opts.Scale }

// provider exposes the session's measurement provider, so the exhaustive
// sweeps the figures run share the session's cache stack.
func (r *Runner) provider() measure.Provider { return r.session.Provider() }

// run sends one unified request — app over the named space — through
// the runner's session. The model behind it is built once per
// (app, space) and reused across every weighting and figure by the
// session's model layer.
func (r *Runner) run(ctx context.Context, app, spaceName string, req core.Request) (*core.Report, error) {
	space, err := config.SpaceByName(spaceName)
	if err != nil {
		return nil, fmt.Errorf("experiments: unknown space %q", spaceName)
	}
	req.App = app
	req.Scale = r.opts.Scale
	req.Space = space
	rep, err := r.session.Tune(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("experiments: tuning %s/%s: %w", app, spaceName, err)
	}
	return rep, nil
}

// tune solves and validates app over the named space under the given
// weights.
func (r *Runner) tune(ctx context.Context, app, spaceName string, w core.Weights) (*core.Report, error) {
	return r.run(ctx, app, spaceName, core.Request{Weights: w})
}

// model returns the perturbation model for app over the given space
// ("full" or "dcache"), resident in the session's model layer.
func (r *Runner) model(ctx context.Context, app, spaceName string) (*core.Model, error) {
	rep, err := r.run(ctx, app, spaceName, core.Request{SkipValidation: true})
	if err != nil {
		return nil, err
	}
	return rep.Artifacts.Model, nil
}

// ByID regenerates a table by its identifier ("figure1" .. "figure7",
// "space").
func (r *Runner) ByID(ctx context.Context, id string) (*Table, error) {
	switch id {
	case "figure1", "1":
		return Figure1(), nil
	case "space":
		return SpaceSize(), nil
	case "figure2", "2":
		return r.Figure2(ctx)
	case "figure3", "3":
		return r.Figure3(ctx)
	case "figure4", "4":
		return r.Figure4(ctx)
	case "figure5", "5":
		return r.Figure5(ctx)
	case "figure6", "6":
		return r.Figure6(ctx)
	case "figure7", "7":
		return r.Figure7(ctx)
	case "energy", "8":
		return r.Energy(ctx)
	case "interaction", "9":
		return r.Interaction(ctx)
	case "conformance", "check":
		return r.Conformance(ctx)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (use figure1..figure7, space or energy)", id)
	}
}

// IDs lists every regenerable experiment.
func IDs() []string {
	return []string{"figure1", "space", "figure2", "figure3", "figure4", "figure5", "figure6", "figure7", "energy", "interaction", "conformance"}
}
