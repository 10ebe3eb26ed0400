package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/platform"
	"liquidarch/internal/workload"
)

var updateGoldens = flag.Bool("update", false, "rewrite golden files")

// replayErrorBoundPct is the conformance bound: the modeled schedule
// cost and the replayed (actually reshaped) run must agree within this
// percentage. The per-phase models predict each phase's cycles from its
// own profile, and the replay executes the very intervals those
// profiles summarize, so the two figures track closely — the residual
// is boundary effects (cold caches and window state after a reshape)
// that the model does not see.
const replayErrorBoundPct = 2.0

// tuneMixReplay tunes mix with a schedule replay, and an online run if
// asked, twice on one session. The first tune builds the model and times
// the replays from its recording; the second shares the model and runs
// them in full. Both must report byte for byte the same replay blocks.
// It returns the first report.
func tuneMixReplay(t *testing.T, online bool) *core.Report {
	t.Helper()
	sess, _ := newCountedSession(t)
	req := core.Request{
		App:    "mix",
		Scale:  workload.Tiny,
		Space:  config.DcacheGeometrySpace(),
		Phases: &core.PhaseOptions{IntervalInstructions: 20_000},
		Replay: true,
		Online: online,
	}
	replays := uint64(1)
	if online {
		replays++
	}
	var reps [2]*core.Report
	for i := range reps {
		before := platform.Counters()
		rep, err := sess.Tune(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		after := platform.Counters()
		timed := after.ReplayTimed - before.ReplayTimed
		all := after.ReplayRuns + after.OnlineRuns - before.ReplayRuns - before.OnlineRuns
		if want := replays * uint64(1-i); timed != want || all != replays {
			t.Fatalf("tune %d: %d of %d replays timed from the trace, want %d of %d", i+1, timed, all, want, replays)
		}
		reps[i] = rep
	}
	for _, block := range []func(*core.Report) any{
		func(r *core.Report) any { return r.Replay },
		func(r *core.Report) any { return r.Online },
	} {
		walked, err := json.Marshal(block(reps[0]))
		if err != nil {
			t.Fatal(err)
		}
		full, err := json.Marshal(block(reps[1]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(walked, full) {
			t.Errorf("replay timed from the recording differs from the full replay:\nwalked %s\nfull   %s", walked, full)
		}
	}
	return reps[0]
}

// TestReplayConformanceGolden is the conformance suite's anchor: replay
// the mix benchmark's per-phase schedule, require the modeled and
// replayed whole-run cycles to agree within replayErrorBoundPct, and
// pin the full replay block against a golden so any drift in segment
// accounting, switch pricing or the error figure is a visible diff.
// The replay runs both timed from the build's recording and in full
// (tuneMixReplay). Regenerate with go test ./internal/core -run
// TestReplayConformanceGolden -update.
func TestReplayConformanceGolden(t *testing.T) {
	rep := tuneMixReplay(t, false)
	if rep.Replay == nil {
		t.Fatal("Replay block missing from report")
	}
	if rep.Replay.Sampled {
		t.Fatal("tiny mix replay must run to completion")
	}
	if rep.Replay.ExitCode != 0 {
		t.Fatalf("replayed mix exited %d", rep.Replay.ExitCode)
	}
	if math.Abs(rep.Replay.ErrorPct) > replayErrorBoundPct {
		t.Errorf("modeled-vs-replayed error %.3f%% exceeds the %.1f%% conformance bound",
			rep.Replay.ErrorPct, replayErrorBoundPct)
	}
	if rep.Replay.ActualCycles != rep.Replay.SimulatedCycles+rep.Replay.SwitchCostCycles {
		t.Error("actual cycles must be simulated cycles plus switch overhead")
	}
	if len(rep.Replay.Segments) != len(rep.Phases.Trace.Segments) {
		t.Errorf("replay produced %d segments for a %d-segment schedule",
			len(rep.Replay.Segments), len(rep.Phases.Trace.Segments))
	}

	got, err := json.MarshalIndent(rep.Replay, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "replay_mix_tiny_dcache.golden")
	if *updateGoldens {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("replay block drifted from golden %s (regenerate with -update):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestOnlineScheduleDifferential is the online-vs-schedule differential:
// with stable phases the closed-loop run must pick the schedule's
// configuration everywhere except the one-interval reaction lag at each
// config-changing boundary — so divergences are bounded by the
// schedule's switch count, counted, and always present in the wire
// document (never silent).
func TestOnlineScheduleDifferential(t *testing.T) {
	rep := tuneMixReplay(t, true)
	if rep.Online == nil {
		t.Fatal("Online block missing from report")
	}
	if rep.Replay == nil {
		t.Fatal("Replay block missing from report")
	}

	// Architectural equivalence: adaptation reshapes the platform, never
	// the program — both modes finish the same computation.
	if rep.Online.Checksum != rep.Replay.Checksum || rep.Online.ExitCode != rep.Replay.ExitCode {
		t.Errorf("online run computed checksum %d exit %d, replay %d exit %d",
			rep.Online.Checksum, rep.Online.ExitCode, rep.Replay.Checksum, rep.Replay.ExitCode)
	}

	// The trace's own intervals classify back to their phases (the
	// stable-phase property, tested in internal/phase), so the only
	// divergence the lagged controller can make is the first interval
	// after each boundary whose configuration actually changed.
	maxLag := 0
	for _, e := range rep.Phases.Schedule {
		if e.Switch {
			maxLag++
		}
	}
	if rep.Online.Divergences > maxLag {
		t.Errorf("online run diverged on %d intervals; stable phases allow at most %d (one reaction-lag interval per config switch)",
			rep.Online.Divergences, maxLag)
	}
	if rep.Online.Unclassified != 0 {
		t.Errorf("%d intervals of the trace's own program failed to classify", rep.Online.Unclassified)
	}
	if rep.Online.Switches > maxLag {
		t.Errorf("online run switched %d times, schedule needs %d", rep.Online.Switches, maxLag)
	}

	// Never silent: the wire document always carries the divergence
	// count, zero or not.
	doc, err := json.Marshal(rep.Online)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(doc, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"divergences", "unclassified"} {
		if _, ok := fields[key]; !ok {
			t.Errorf("online block omits %q from the wire document", key)
		}
	}
}

// TestReplayDecisionHalfOnly is the cache-exclusion acceptance test:
// replay and online are decision-half flags, so turning them on for an
// already-tuned request must run its extra simulations outside the
// measurement provider — zero new provider measurements, a model-layer
// hit rather than a rebuild, and a byte-identical Phases block.
func TestReplayDecisionHalfOnly(t *testing.T) {
	sess, sim := newCountedSession(t)
	req := core.Request{
		App:    "mix",
		Scale:  workload.Tiny,
		Space:  config.DcacheGeometrySpace(),
		Phases: &core.PhaseOptions{IntervalInstructions: 20_000},
	}
	plain, err := sess.Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sims := sim.calls.Load()

	req.Replay = true
	req.Online = true
	replayed, err := sess.Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d := sim.calls.Load() - sims; d != 0 {
		t.Errorf("replay+online request ran %d simulations through the measurement provider, want 0", d)
	}
	if st := sess.ModelStats(); st.Builds != 1 || st.Hits != 1 {
		t.Errorf("replay request rebuilt the model set: %+v", st)
	}
	if replayed.Replay == nil || replayed.Online == nil {
		t.Fatal("replay/online blocks missing")
	}

	a, err := json.Marshal(plain.Phases)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(replayed.Phases)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("replay flags changed the Phases block — they must be decision-half only")
	}
	if !reflect.DeepEqual(plain.Recommendation, replayed.Recommendation) {
		t.Error("replay flags changed the whole-program recommendation")
	}
}

// TestReplayRequiresPhases: the flags are meaningless without a phase
// schedule to replay and are rejected at request resolution.
func TestReplayRequiresPhases(t *testing.T) {
	sess, _ := newCountedSession(t)
	for _, req := range []core.Request{
		{App: "mix", Scale: workload.Tiny, Replay: true},
		{App: "mix", Scale: workload.Tiny, Online: true},
	} {
		if _, err := sess.Tune(context.Background(), req); err == nil {
			t.Errorf("request %+v accepted without Phases", req)
		}
	}
}
