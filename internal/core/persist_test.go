package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "arith", config.FullSpace())

	path := filepath.Join(t.TempDir(), "arith.model.json")
	if err := core.SaveModel(m, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.App != m.App || loaded.Scale != m.Scale {
		t.Errorf("identity lost: %s/%s", loaded.App, loaded.Scale)
	}
	if loaded.BaseCycles != m.BaseCycles || loaded.BaseResources != m.BaseResources {
		t.Errorf("base measurements lost")
	}
	if loaded.BaseEnergy != m.BaseEnergy {
		t.Errorf("base energy lost")
	}
	if loaded.Space.Len() != m.Space.Len() {
		t.Fatalf("space size %d, want %d", loaded.Space.Len(), m.Space.Len())
	}
	for i := range m.Entries {
		a, b := m.Entries[i], loaded.Entries[i]
		if a.Var.Name != b.Var.Name || a.Cycles != b.Cycles || a.Rho != b.Rho ||
			a.Lambda != b.Lambda || a.Beta != b.Beta || a.Resources != b.Resources ||
			a.Energy != b.Energy || a.Epsilon != b.Epsilon {
			t.Fatalf("entry %d differs:\n %+v\n %+v", i, a, b)
		}
	}
}

// TestLoadedModelSolvesIdentically: recommendations from a reloaded model
// must match the original exactly.
func TestLoadedModelSolvesIdentically(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "blastn", config.FullSpace())
	path := filepath.Join(t.TempDir(), "blastn.model.json")
	if err := core.SaveModel(m, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []core.Weights{core.RuntimeWeights(), core.ResourceWeights(), core.EnergyWeights()} {
		r1, r2 := solve(t, m, w), solve(t, loaded, w)
		if r1.Config != r2.Config {
			t.Errorf("weights %+v: loaded model recommends %v, original %v",
				w, r2.Config.DiffBase(), r1.Config.DiffBase())
		}
	}
}

func TestSubspaceModelRoundTrips(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, "arith", config.DcacheGeometrySpace())
	path := filepath.Join(t.TempDir(), "sub.model.json")
	if err := core.SaveModel(m, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Space.Len() != 8 {
		t.Errorf("subspace lost: %d vars", loaded.Space.Len())
	}
}

func TestLoadModelErrors(t *testing.T) {
	t.Parallel()
	if _, err := core.LoadModel(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModel(bad); err == nil {
		t.Error("malformed JSON should error")
	}
	unknownVar := filepath.Join(t.TempDir(), "unk.json")
	if err := os.WriteFile(unknownVar, []byte(`{"app":"x","scale":"tiny","entries":[{"var":"warpdrive=on"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModel(unknownVar); err == nil {
		t.Error("unknown variable should error")
	}
	badScale := filepath.Join(t.TempDir(), "scale.json")
	if err := os.WriteFile(badScale, []byte(`{"app":"x","scale":"galactic","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModel(badScale); err == nil {
		t.Error("unknown scale should error")
	}
}
