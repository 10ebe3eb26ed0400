package core_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/exhaustive"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// tune runs req through a fresh session over the process-wide shared
// measurement cache. A request's zero Scale is workload.Tiny.
func tune(t *testing.T, req core.Request) *core.Report {
	t.Helper()
	rep, err := core.NewSession(core.SessionOptions{}).Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// tinyModel builds app's perturbation model over space at Tiny scale.
func tinyModel(t *testing.T, app string, space *config.Space) *core.Model {
	t.Helper()
	return tune(t, core.Request{App: app, Space: space, SkipValidation: true}).Artifacts.Model
}

// solve solves a built model under w without measuring anything.
func solve(t *testing.T, m *core.Model, w core.Weights) *core.Recommendation {
	t.Helper()
	return tune(t, core.Request{App: m.App, Scale: m.Scale, Model: m, Weights: w, SkipValidation: true}).Artifacts.Recommendation
}

func mustBenchmark(t *testing.T, name string) *progs.Benchmark {
	t.Helper()
	b, ok := progs.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	return b
}

func TestBuildModelDcacheSubspace(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "arith", config.DcacheGeometrySpace())
	if len(m.Entries) != 8 {
		t.Fatalf("entries = %d, want 8", len(m.Entries))
	}
	if m.BaseCycles == 0 {
		t.Fatal("base cycles missing")
	}
	// Arith is not data intensive: every dcache geometry change must have
	// rho == 0 (paper Figure 4: "No effect").
	for _, e := range m.Entries {
		if e.Rho != 0 {
			t.Errorf("%s: rho = %f, arith should be dcache-insensitive", e.Var.Name, e.Rho)
		}
	}
	// Larger set sizes must cost BRAM; 32KB costs the most.
	e32, ok := m.EntryByName("dcachsetsz=32")
	if !ok {
		t.Fatal("dcachsetsz=32 entry missing")
	}
	if e32.Beta <= 0 {
		t.Errorf("32KB dcache should cost BRAM, beta = %d", e32.Beta)
	}
	e1, _ := m.EntryByName("dcachsetsz=1")
	if e1.Beta >= 0 {
		t.Errorf("1KB dcache should save BRAM, beta = %d", e1.Beta)
	}
}

func TestBuildModelMeasuresReplacementViaCompanion(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "arith", config.FullSpace())
	if len(m.Entries) != 52 {
		t.Fatalf("entries = %d, want 52", len(m.Entries))
	}
	for _, name := range []string{"icachreplace=LRR", "icachreplace=LRU", "dcachreplace=LRR", "dcachreplace=LRU"} {
		e, ok := m.EntryByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if e.Cycles == 0 {
			t.Errorf("%s not measured", name)
		}
		// Arith is cache-insensitive, so the policy delta must be 0.
		if e.Rho != 0 {
			t.Errorf("%s: rho = %f on arith", name, e.Rho)
		}
	}
	// Every entry must be populated.
	for _, e := range m.Entries {
		if e.Var.Name == "" || e.Cycles == 0 {
			t.Errorf("unpopulated entry: %+v", e)
		}
	}
}

func TestFormulateObjectiveAndGroups(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "arith", config.DcacheGeometrySpace())
	w := core.Weights{W1: 100, W2: 1}
	p := m.Formulate(w)
	if p.N != 8 {
		t.Fatalf("problem has %d vars", p.N)
	}
	for i, e := range m.Entries {
		want := w.W1*e.Rho + w.W2*float64(e.Lambda+e.Beta)
		if math.Abs(p.Cost[i]-want) > 1e-9 {
			t.Errorf("cost[%d] = %f, want %f", i, p.Cost[i], want)
		}
	}
	if len(p.Groups) != 2 {
		t.Errorf("groups = %d, want 2 (sets, setsize)", len(p.Groups))
	}
	// Device constraints present.
	var names []string
	for _, c := range p.Constraints {
		names = append(names, c.Name)
	}
	joined := strings.Join(names, ";")
	if !strings.Contains(joined, "LUT") || !strings.Contains(joined, "BRAM") {
		t.Errorf("constraints missing: %v", names)
	}
}

func TestFormulateFullSpaceCouplings(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "arith", config.FullSpace())
	p := m.Formulate(core.RuntimeWeights())
	var couplings int
	for _, c := range p.Constraints {
		if strings.Contains(c.Name, "requires") {
			couplings++
		}
	}
	if couplings != 4 {
		t.Errorf("coupling constraints = %d, want 4 (LRR/LRU x icache/dcache)", couplings)
	}
}

// TestRecommendationIsValidAndBeatsBase: whatever the solver picks must
// decode to a valid configuration, fit the device, and (validated by an
// actual run) not be slower than base under runtime weighting.
func TestRecommendationIsValidAndBeatsBase(t *testing.T) {
	t.Parallel()
	for _, app := range []string{"blastn", "arith"} {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			a := tune(t, core.Request{App: app, Weights: core.RuntimeWeights()}).Artifacts
			rec, m, val := a.Recommendation, a.Model, a.Validation
			if err := rec.Config.Validate(); err != nil {
				t.Fatalf("recommended config invalid: %v", err)
			}
			if !rec.Proven {
				t.Error("52-variable instance should be proven optimal")
			}
			if !val.Resources.FitsDevice() {
				t.Errorf("recommendation does not fit the device: %v", val.Resources)
			}
			if val.Cycles > m.BaseCycles {
				t.Errorf("runtime-weighted recommendation slower than base: %d vs %d", val.Cycles, m.BaseCycles)
			}
		})
	}
}

// TestResourceWeightingSavesResources mirrors Section 6.2: with w2
// dominant the recommendation must not use more chip resources than base.
func TestResourceWeightingSavesResources(t *testing.T) {
	t.Parallel()
	a := tune(t, core.Request{App: "arith", Weights: core.ResourceWeights()}).Artifacts
	m, val := a.Model, a.Validation
	if val.Resources.BRAMPercent() > m.BaseResources.BRAMPercent() {
		t.Errorf("resource weighting grew BRAM: %d%% > %d%%",
			val.Resources.BRAMPercent(), m.BaseResources.BRAMPercent())
	}
	if val.Resources.LUTPercent() > m.BaseResources.LUTPercent() {
		t.Errorf("resource weighting grew LUTs: %d%% > %d%%",
			val.Resources.LUTPercent(), m.BaseResources.LUTPercent())
	}
}

// TestSection5NearOptimality is the paper's Section 5 experiment as a
// test: on the dcache sets×setsize sub-space, the optimizer's runtime
// (w2=0) selection must be within 0.5% of the exhaustive optimum.
func TestSection5NearOptimality(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	for _, app := range []string{"blastn", "drr", "arith"} {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			b := mustBenchmark(t, app)
			val := tune(t, core.Request{App: app, Space: config.DcacheGeometrySpace(), Weights: core.RuntimeOnlyWeights()}).Artifacts.Validation
			results, err := exhaustive.DcacheGeometry(context.Background(), b, workload.Tiny, 0)
			if err != nil {
				t.Fatal(err)
			}
			best, err := exhaustive.BestByRuntime(results)
			if err != nil {
				t.Fatal(err)
			}
			gap := 100 * (float64(val.Cycles) - float64(best.Cycles)) / float64(best.Cycles)
			if gap > 0.5 {
				t.Errorf("optimizer %d cycles vs exhaustive %d (gap %.3f%%); paper reports <=0.02%%",
					val.Cycles, best.Cycles, gap)
			}
		})
	}
}

func TestWeightsPresets(t *testing.T) {
	if w := core.RuntimeWeights(); w.W1 != 100 || w.W2 != 1 {
		t.Errorf("runtime weights = %+v", w)
	}
	if w := core.ResourceWeights(); w.W1 != 1 || w.W2 != 100 {
		t.Errorf("resource weights = %+v", w)
	}
	if w := core.RuntimeOnlyWeights(); w.W1 != 100 || w.W2 != 0 {
		t.Errorf("runtime-only weights = %+v", w)
	}
}

func TestPredictLinearVsNonlinear(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "blastn", config.DcacheGeometrySpace())
	// Select sets=2 and setsize=16: the nonlinear form must predict more
	// BRAM than the linear sum (the product counts the second way's 16KB).
	sel := make([]bool, m.Space.Len())
	for i, v := range m.Space.Vars() {
		if v.Name == "dcachsets=2" || v.Name == "dcachsetsz=16" {
			sel[i] = true
		}
	}
	pred := m.Predict(sel)
	if pred.BRAMPctNonlinear <= pred.BRAMPctLinear {
		t.Errorf("nonlinear BRAM %d%% should exceed linear %d%% for 2x16",
			pred.BRAMPctNonlinear, pred.BRAMPctLinear)
	}
}

func TestRecommendFromModelReuse(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "blastn", config.DcacheGeometrySpace())
	r1 := solve(t, m, core.RuntimeOnlyWeights())
	r2 := solve(t, m, core.ResourceWeights())
	// Different weightings over the same model should generally differ;
	// at minimum both must decode to valid configurations.
	if err := r1.Config.Validate(); err != nil {
		t.Error(err)
	}
	if err := r2.Config.Validate(); err != nil {
		t.Error(err)
	}
}
