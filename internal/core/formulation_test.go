package core_test

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"liquidarch/internal/binlp"
	"liquidarch/internal/config"
	"liquidarch/internal/core"
)

// gridWeights are the objective weightings of the perfbench request grid.
var gridWeights = []core.Weights{
	{W1: 100, W2: 1}, {W1: 1, W2: 100}, {W1: 100, W2: 100}, {W1: 50, W2: 1},
	{W1: 10, W2: 1}, {W1: 1, W2: 10}, {W1: 100, W2: 1, W3: 10}, {W1: 1, W2: 1, W3: 100},
}

// problemJSON renders a formulated problem with its coefficient maps,
// so two formulations compare byte for byte.
func problemJSON(t *testing.T, p *binlp.Problem) string {
	t.Helper()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sameSolution reports whether two solves ran the identical search.
func sameSolution(a, b *binlp.Solution) bool {
	return a.Nodes == b.Nodes && a.Proven == b.Proven &&
		math.Float64bits(a.Objective) == math.Float64bits(b.Objective) && slices.Equal(a.X, b.X)
}

// TestFormulateConstraintHeadersAreCallerOwned: the constraints Formulate
// returns share their compiled forms with the model, but their headers
// belong to the caller. Re-bounding and renaming every returned
// constraint (what examples/resource_budget does) must leave the model's
// next formulation and a Session.Tune answer on the model unchanged.
func TestFormulateConstraintHeadersAreCallerOwned(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "blastn", config.FullSpace())
	w := core.RuntimeWeights()
	ref := m.Formulate(w)
	refJSON := problemJSON(t, ref)
	refSol, err := binlp.Solve(ref, binlp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refRec := solve(t, m, w)

	edited := m.Formulate(w)
	for _, c := range edited.Constraints {
		c.Name += " (edited)"
		c.Bound = 0
	}
	if _, err := binlp.Solve(edited, binlp.Options{}); err != nil {
		t.Fatal(err)
	}

	next := m.Formulate(w)
	if got := problemJSON(t, next); got != refJSON {
		t.Fatalf("editing returned constraints changed the next formulation:\n got %s\nwant %s", got, refJSON)
	}
	sol, err := binlp.Solve(next, binlp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(sol, refSol) {
		t.Errorf("next solve %+v, reference %+v", sol, refSol)
	}
	if rec := solve(t, m, w); !reflect.DeepEqual(rec, refRec) {
		t.Errorf("Session.Tune answer changed after editing a formulation:\n got %+v\nwant %+v", rec, refRec)
	}
}

// TestDecodeIntoFormulatedModelRecompiles: decoding a model's JSON into
// a Model that already compiled its formulation must not keep the old
// compile. Model A (full space) formulates and predicts first; then B's
// JSON (the dcache sub-space) is decoded into it, and A must formulate
// and predict exactly as a freshly decoded B does.
func TestDecodeIntoFormulatedModelRecompiles(t *testing.T) {
	t.Parallel()
	a := tinyModel(t, "blastn", config.FullSpace())
	b := tinyModel(t, "arith", config.DcacheGeometrySpace())
	w := core.RuntimeWeights()
	a.Formulate(w)
	a.Predict(make([]bool, a.Space.Len()))

	data, err := b.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	fresh := &core.Model{}
	if err := fresh.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}

	for _, w := range gridWeights {
		got, want := a.Formulate(w), fresh.Formulate(w)
		if g, f := problemJSON(t, got), problemJSON(t, want); g != f {
			t.Fatalf("weights %+v: decoded-into model formulates\n %s\nfresh model\n %s", w, g, f)
		}
		sol, err := binlp.Solve(want, binlp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g, f := a.Predict(sol.X), fresh.Predict(sol.X); g != f {
			t.Errorf("weights %+v: decoded-into model predicts %+v, fresh model %+v", w, g, f)
		}
	}
	all := make([]bool, fresh.Space.Len())
	for i := range all {
		all[i] = true
	}
	if g, f := a.Predict(all), fresh.Predict(all); g != f {
		t.Errorf("all-selected prediction %+v, fresh model %+v", g, f)
	}
}

// TestFormulateSolvePredictConcurrent: one model and the shared full
// space serve many goroutines at once — the warm daemon's situation.
// Each goroutine formulates, solves, predicts and decodes under its own
// grid weighting on a model whose formulation is not yet compiled, so
// the first compile races too; every result must equal the serial one.
// Run it under -race.
func TestFormulateSolvePredictConcurrent(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "blastn", config.FullSpace())
	type result struct {
		sol  *binlp.Solution
		pred core.Prediction
		cfg  config.Config
		fp   string
	}
	run := func(m *core.Model, w core.Weights) (result, error) {
		sol, err := binlp.Solve(m.Formulate(w), binlp.Options{})
		if err != nil {
			return result{}, err
		}
		space := config.FullSpace()
		cfg, err := space.Decode(sol.X)
		return result{sol, m.Predict(sol.X), cfg, space.Fingerprint()}, err
	}
	want := make([]result, len(gridWeights))
	for i, w := range gridWeights {
		r, err := run(m, w)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	shared := &core.Model{}
	if err := shared.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if shared.Space != config.FullSpace() {
		t.Fatal("a decoded full-space model must bind the shared full space")
	}
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(gridWeights)*rounds)
	for g := range 2 * len(gridWeights) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(gridWeights)
			for range rounds {
				got, err := run(shared, gridWeights[i])
				if err != nil {
					errs <- err
					return
				}
				if !sameSolution(got.sol, want[i].sol) || got.pred != want[i].pred ||
					!reflect.DeepEqual(got.cfg, want[i].cfg) || got.fp != want[i].fp {
					t.Errorf("weights %+v: concurrent result %+v, serial %+v", gridWeights[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFormulateRejectsNonFiniteCosts: a weighting that makes any cost
// NaN or infinite — given outright, or a finite weight whose product
// with a model coefficient overflows — formulates a problem Validate
// and Solve both refuse, instead of a search that runs to the node
// limit and answers with an unproven pick.
func TestFormulateRejectsNonFiniteCosts(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "arith", config.FullSpace())
	for _, tc := range []struct {
		name string
		w    core.Weights
	}{
		{"NaN", core.Weights{W1: math.NaN(), W2: 1}},
		{"+Inf", core.Weights{W1: math.Inf(1), W2: 1}},
		{"-Inf", core.Weights{W1: math.Inf(-1), W2: 1}},
		{"overflow", core.Weights{W1: 1e308, W2: 1}},
	} {
		p := m.Formulate(tc.w)
		if !slices.ContainsFunc(p.Cost, func(c float64) bool { return math.IsNaN(c) || math.IsInf(c, 0) }) {
			t.Fatalf("%s: weighting %+v formulated only finite costs", tc.name, tc.w)
		}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a non-finite cost", tc.name)
		}
		if sol, err := binlp.Solve(p, binlp.Options{MaxNodes: 1000}); err == nil {
			t.Errorf("%s: Solve answered %+v for a non-finite cost", tc.name, sol)
		}
	}
	if err := m.Formulate(core.RuntimeWeights()).Validate(); err != nil {
		t.Fatalf("runtime weighting: %v", err)
	}
}
