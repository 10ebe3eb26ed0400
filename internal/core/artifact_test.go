package core_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/measure"
	"liquidarch/internal/platform"
	"liquidarch/internal/workload"
)

// artifactFiles lists the model artifacts resident in dir's store.
func artifactFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("v%d", core.ModelSetVersion), "*"+core.ArtifactSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestModelArtifactRestart is the durable-tier acceptance test at the
// session level: a second session — fresh model layer, as after a
// process restart — over the same artifact directory and the same
// measurement cache must serve the same request with zero model builds
// and zero simulations.
func TestModelArtifactRestart(t *testing.T) {
	dir := t.TempDir()
	ms, err := core.NewModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sim := &countedSimulator{}
	cache := measure.NewCache(sim, 512)
	req := core.Request{App: "arith", Scale: workload.Tiny, Space: config.DcacheGeometrySpace()}

	first := core.NewSession(core.SessionOptions{Provider: cache, ModelStore: ms})
	repA, err := first.Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.ModelStats(); st.Builds != 1 || st.Spills != 1 || st.DiskMisses != 1 {
		t.Fatalf("first session stats %+v, want 1 build / 1 spill / 1 disk miss", st)
	}
	if files := artifactFiles(t, dir); len(files) != 1 {
		t.Fatalf("artifact files after spill: %v", files)
	}
	sims := sim.calls.Load()

	second := core.NewSession(core.SessionOptions{Provider: cache, ModelStore: ms})
	repB, err := second.Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d := sim.calls.Load() - sims; d != 0 {
		t.Errorf("restarted session ran %d new simulations, want 0", d)
	}
	if st := second.ModelStats(); st.Builds != 0 || st.DiskHits != 1 {
		t.Errorf("restarted session stats %+v, want 0 builds / 1 disk hit", st)
	}
	if repA.Base != repB.Base {
		t.Error("artifact-loaded model must yield the same base cost point")
	}
	if repA.Recommendation.Config != repB.Recommendation.Config {
		t.Error("artifact-loaded model must yield the same recommendation")
	}
}

// TestModelArtifactRestartPhases: the artifact round-trips a phase model
// set — models, trace and base profiles — well enough that the restarted
// session's phase report matches the original's.
func TestModelArtifactRestartPhases(t *testing.T) {
	dir := t.TempDir()
	ms, err := core.NewModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sim := &countedSimulator{}
	cache := measure.NewCache(sim, 512)
	req := core.Request{
		App:    "arith",
		Scale:  workload.Tiny,
		Space:  config.DcacheGeometrySpace(),
		Phases: &core.PhaseOptions{IntervalInstructions: 10_000},
	}

	first := core.NewSession(core.SessionOptions{Provider: cache, ModelStore: ms})
	repA, err := first.Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sims := sim.calls.Load()

	second := core.NewSession(core.SessionOptions{Provider: cache, ModelStore: ms})
	repB, err := second.Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d := sim.calls.Load() - sims; d != 0 {
		t.Errorf("restarted phase session ran %d new simulations, want 0", d)
	}
	if st := second.ModelStats(); st.Builds != 0 || st.DiskHits != 1 {
		t.Errorf("restarted phase session stats %+v, want 0 builds / 1 disk hit", st)
	}
	if repB.Phases == nil {
		t.Fatal("restarted session lost the phases block")
	}
	if repA.Phases.Trace.Phases != repB.Phases.Trace.Phases ||
		repA.Phases.PerPhaseCycles != repB.Phases.PerPhaseCycles ||
		repA.Phases.WholeProgramCycles != repB.Phases.WholeProgramCycles {
		t.Errorf("phase report drifted across the artifact round trip:\n%+v\n%+v",
			repA.Phases, repB.Phases)
	}
}

// TestModelArtifactCorruptReadsAsMiss: a corrupt artifact is removed on
// sight, the session rebuilds, and the next spill replaces it.
func TestModelArtifactCorruptReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	ms, err := core.NewModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := measure.NewCache(&countedSimulator{}, 512)
	req := core.Request{App: "arith", Scale: workload.Tiny, Space: config.DcacheGeometrySpace()}

	first := core.NewSession(core.SessionOptions{Provider: cache, ModelStore: ms})
	if _, err := first.Tune(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	files := artifactFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("artifact files: %v", files)
	}
	if err := os.WriteFile(files[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	second := core.NewSession(core.SessionOptions{Provider: cache, ModelStore: ms})
	if _, err := second.Tune(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// The disk counters live on the shared store, so they accumulate the
	// first session's initial miss and spill too.
	st := second.ModelStats()
	if st.Builds != 1 || st.DiskHits != 0 || st.DiskMisses != 2 || st.Spills != 2 {
		t.Errorf("corrupt artifact stats %+v, want 1 build / 0 disk hits / 2 disk misses / 2 spills", st)
	}
	// The rebuild's spill replaced the corrupt artifact with a loadable one.
	third := core.NewSession(core.SessionOptions{Provider: cache, ModelStore: ms})
	if _, err := third.Tune(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := third.ModelStats(); st.Builds != 0 || st.DiskHits != 1 {
		t.Errorf("replacement artifact stats %+v, want 0 builds / 1 disk hit", st)
	}
}

// failingProvider errors on every measurement.
type failingProvider struct{}

func (failingProvider) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	return nil, errors.New("injected measurement failure")
}

// TestModelArtifactFailedBuildNotSpilled: a failed build must leave no
// artifact behind — whatever lands on disk always describes a completed
// build.
func TestModelArtifactFailedBuildNotSpilled(t *testing.T) {
	dir := t.TempDir()
	ms, err := core.NewModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess := core.NewSession(core.SessionOptions{Provider: failingProvider{}, ModelStore: ms})
	_, err = sess.Tune(context.Background(), core.Request{
		App: "arith", Scale: workload.Tiny, Space: config.DcacheGeometrySpace(),
	})
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("tune error = %v, want the injected failure", err)
	}
	if files := artifactFiles(t, dir); len(files) != 0 {
		t.Errorf("failed build spilled artifacts: %v", files)
	}
	if st := sess.ModelStats(); st.Spills != 0 {
		t.Errorf("failed build counted %d spills", st.Spills)
	}
}
