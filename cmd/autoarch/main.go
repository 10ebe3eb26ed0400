// Command autoarch is the paper's technique as a tool: automatic
// application-specific microarchitecture reconfiguration. It maps its
// flags 1:1 onto a core.Request, runs it through the unified tuning
// pipeline (core.Session.Tune) — build the one-change-at-a-time cost
// model, formulate and solve the Section 4 BINLP, validate with an
// actual build and run — and prints the resulting core.Report.
//
// Usage:
//
//	autoarch -app blastn [-w1 100 -w2 1] [-scale small] [-space full|dcache] [-model] [-json]
//	autoarch -app mix -phases [-interval N] [-switch-penalty N] [-phase-threshold T] [-json]
//	autoarch -app mix -replay [-online] ...
//	autoarch -app blastn [-model-dir DIR] ...
//	autoarch -app mix -trace ...
//	autoarch -app blastn -sweep-weights "100:1,1:100" [-json]
//	autoarch -app blastn -remote http://head:8723 [-class bulk] ...
//
// With -model-dir the built model set is spilled to a durable artifact
// and reused by later runs (and by an autoarchd sharing the directory).
//
// With -json the result is the core.Report document — the same
// serialization the autoarchd daemon returns for a finished job — on
// stdout, with the human progress lines demoted to stderr.
//
// With -sweep-weights the listed weightings run as one batch through
// one session: the first builds the cost model, the rest reuse it and
// only solve, so an N-weighting sweep costs one model build. With
// -remote the work is submitted to a running autoarchd instead —
// POST /v1/jobs for a single tune, POST /v1/batch for a sweep — polled
// to completion (progress on stderr), and the daemon's result document
// is printed as JSON; -class bulk schedules the submission behind the
// daemon's interactive jobs.
//
// With -trace the run is traced through the obs layer and a
// human-readable stage breakdown — model build vs. solve vs.
// validation, with each stage's share of the total tune wall time and
// the measurement cache outcomes — is printed after the report (to
// stderr in -json mode).
//
// With -phases the tool runs phase-aware tuning instead: the base run is
// profiled in -interval instruction slices, phases are detected from the
// interval signatures, one configuration is recommended per phase, and
// the per-phase schedule (charged -switch-penalty cycles per
// configuration parameter changed at each mid-run reconfiguration) is
// weighed against the single whole-program recommendation. The report
// then carries the "phases" block the daemon's phase jobs return.
//
// With -replay the per-phase schedule is additionally executed for real
// — one simulation that reshapes the platform at every segment boundary
// — and the report gains the "replay" block with the actual per-segment
// cycles and the modeled-vs-replayed conformance error. -online further
// runs the closed-loop mode: the platform classifies each live
// interval's block signature against the detected phases and switches
// with no precomputed schedule, reporting how often it diverged from
// one. Both imply -phases and never touch cached measurements.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/obs"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the CLI is testable
// end to end (including the -json golden file).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("autoarch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app       = fs.String("app", "", "benchmark to tune (blastn, drr, frag, arith, mix)")
		w1        = fs.Float64("w1", 100, "runtime weight (paper: 100 for runtime optimization)")
		w2        = fs.Float64("w2", 1, "chip resource weight (paper: 1, or 100 for resource optimization)")
		scale     = fs.String("scale", "small", "workload scale: tiny, small, medium, paper")
		spaceName = fs.String("space", "full", "decision space: full (52 vars) or dcache (Section 5 sub-space)")
		showModel = fs.Bool("model", false, "print every measured perturbation")
		workers   = fs.Int("workers", 0, "parallel measurement runs (0 = GOMAXPROCS)")
		saveModel = fs.String("save-model", "", "write the measured model to a JSON file")
		loadModel = fs.String("load-model", "", "reuse a previously saved model instead of measuring")
		jsonOut   = fs.Bool("json", false, "emit the result as a core.Report JSON document on stdout")
		traceRun  = fs.Bool("trace", false, "trace the pipeline and print a per-stage breakdown of the tune wall time")
		sweep     = fs.String("sweep-weights", "", "comma-separated w1:w2[:w3] weightings swept as one batch — one model build, N solves (e.g. \"100:1,1:100\")")
		remoteURL = fs.String("remote", "", "submit to a running autoarchd at this base URL (POST /v1/jobs, or /v1/batch with -sweep-weights) instead of tuning locally")
		class     = fs.String("class", "", "scheduling class for -remote submissions: interactive (default) or bulk")

		modelDir = fs.String("model-dir", "", "spill built model sets to durable artifacts in this directory and reuse them on later runs (empty = build in memory every run)")

		phases    = fs.Bool("phases", false, "phase-aware tuning: one configuration per detected execution phase")
		interval  = fs.Uint64("interval", core.DefaultIntervalInstructions, "phase profiling interval length in instructions")
		switchPen = fs.Uint64("switch-penalty", core.DefaultSwitchPenaltyCycles, "cycle cost of a full mid-run reconfiguration; each switch is charged the share of it proportional to the parameters it changes")
		phaseThr  = fs.Float64("phase-threshold", 0, "phase-detection clustering threshold (0 = default)")
		replay    = fs.Bool("replay", false, "replay the per-phase schedule for real and report the modeled-vs-replayed error (implies -phases)")
		online    = fs.Bool("online", false, "additionally run the closed-loop mode: classify live intervals and switch with no precomputed schedule (implies -phases)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// In JSON mode stdout carries only the document; progress goes to
	// stderr so pipelines stay clean.
	progress := stdout
	if *jsonOut {
		progress = stderr
	}

	if *traceRun {
		tracer := obs.NewTracer(obs.TracerOptions{})
		ctx = obs.WithTracer(ctx, tracer)
		// Deferred so the breakdown prints after whichever path ran (and
		// still shows the spans completed so far when the tune failed).
		defer printTrace(tracer, progress)
	}

	if _, ok := progs.ByName(*app); !ok {
		fmt.Fprintf(stderr, "autoarch: unknown app %q\n", *app)
		return 2
	}
	sc, ok := workload.ParseScale(*scale)
	if !ok {
		fmt.Fprintf(stderr, "autoarch: unknown scale %q\n", *scale)
		return 2
	}
	space, err := config.SpaceByName(*spaceName)
	if err != nil {
		fmt.Fprintf(stderr, "autoarch: unknown space %q\n", *spaceName)
		return 2
	}

	weightings, err := parseWeightSweep(*sweep)
	if err != nil {
		fmt.Fprintf(stderr, "autoarch: %v\n", err)
		return 2
	}
	if len(weightings) > 0 && (*phases || *replay || *online || *loadModel != "" || *saveModel != "") {
		fmt.Fprintln(stderr, "autoarch: -sweep-weights is incompatible with -phases, -replay, -online, -save-model and -load-model")
		return 2
	}
	if *remoteURL != "" {
		if *traceRun || *loadModel != "" || *saveModel != "" || *modelDir != "" {
			fmt.Fprintln(stderr, "autoarch: -remote is incompatible with -trace, -save-model, -load-model and -model-dir (those are local-run features)")
			return 2
		}
		if *replay || *online {
			*phases = true
		}
		return runRemote(ctx, *remoteURL, remoteJob{
			app: *app, scale: *scale, space: *spaceName, w1: *w1, w2: *w2,
			workers: *workers, includeModel: *showModel, class: *class,
			phases: *phases, interval: *interval, switchPen: *switchPen,
			phaseThr: *phaseThr, replay: *replay, online: *online,
		}, weightings, *jsonOut, stdout, stderr, progress)
	}

	// The flags map 1:1 onto the unified request; one Session.Tune call
	// is the whole tool.
	req := core.Request{
		App:          *app,
		Scale:        sc,
		Space:        space,
		Weights:      core.Weights{W1: *w1, W2: *w2},
		Workers:      *workers,
		IncludeModel: *showModel,
	}
	var modelStore *core.ModelStore
	if *modelDir != "" {
		modelStore, err = core.NewModelStore(*modelDir)
		if err != nil {
			fmt.Fprintf(stderr, "autoarch: %v\n", err)
			return 1
		}
	}
	sess := core.NewSession(core.SessionOptions{ModelStore: modelStore})

	if len(weightings) > 0 {
		return runSweep(ctx, sess, req, weightings, *jsonOut, stdout, stderr, progress)
	}

	if *replay || *online {
		*phases = true
	}
	if *phases {
		if *loadModel != "" || *saveModel != "" || *showModel {
			fmt.Fprintln(stderr, "autoarch: -phases is incompatible with -model, -save-model and -load-model (phase runs build one model per phase)")
			return 2
		}
		req.IncludeModel = false
		req.Phases = &core.PhaseOptions{
			IntervalInstructions: *interval,
			SwitchPenaltyCycles:  *switchPen,
			Threshold:            *phaseThr,
		}
		req.Replay = *replay
		req.Online = *online
		return runPhases(ctx, sess, req, *jsonOut, stdout, stderr, progress)
	}

	if *loadModel != "" {
		model, err := core.LoadModel(*loadModel)
		if err != nil {
			fmt.Fprintf(stderr, "autoarch: %v\n", err)
			return 1
		}
		req.Model = model
		fmt.Fprintf(progress, "loaded model for %s (%d variables, %s scale)\n",
			model.App, model.Space.Len(), model.Scale)
	} else {
		fmt.Fprintf(progress, "building cost model for %s (%d variables, %s scale)...\n", *app, space.Len(), sc)
	}

	start := time.Now()
	rep, err := sess.Tune(ctx, req)
	if err != nil {
		fmt.Fprintf(stderr, "autoarch: %v\n", err)
		return 1
	}
	model := rep.Artifacts.Model
	if *loadModel == "" {
		fmt.Fprintf(progress, "tuned in %v (model + solve + validation): base %d cycles (%.6f s), %v\n",
			time.Since(start).Round(time.Millisecond), model.BaseCycles,
			float64(model.BaseCycles)/25e6, model.BaseResources)
	}
	if *saveModel != "" {
		if err := core.SaveModel(model, *saveModel); err != nil {
			fmt.Fprintf(stderr, "autoarch: %v\n", err)
			return 1
		}
		fmt.Fprintf(progress, "model saved to %s\n", *saveModel)
	}

	if *jsonOut {
		return writeJSON(rep, stdout, stderr)
	}

	if *showModel {
		fmt.Fprintf(stdout, "\n%-22s %12s %9s %6s %6s\n", "variable", "cycles", "rho%", "lam", "beta")
		for _, e := range model.Entries {
			fmt.Fprintf(stdout, "%-22s %12d %+9.3f %+6d %+6d\n", e.Var.Name, e.Cycles, e.Rho, e.Lambda, e.Beta)
		}
		fmt.Fprintln(stdout)
	}

	rec := rep.Artifacts.Recommendation
	fmt.Fprintf(stdout, "\nsolved BINLP (w1=%g, w2=%g): %d nodes, proven=%t, objective %.3f\n",
		*w1, *w2, rec.SolverNodes, rec.Proven, rec.Objective)
	if len(rec.Changes) == 0 {
		fmt.Fprintln(stdout, "recommendation: keep the base configuration")
	} else {
		fmt.Fprintf(stdout, "recommendation: %s\n", strings.Join(rec.Changes, " "))
	}
	fmt.Fprintf(stdout, "predicted: runtime %.6f s (%+.2f%%), LUTs %d%% (nonlin %d%%), BRAM %d%% (lin %d%%)\n",
		rec.Predicted.RuntimeCycles/25e6, rec.Predicted.RuntimePct,
		rec.Predicted.LUTPctLinear, rec.Predicted.LUTPctNonlinear,
		rec.Predicted.BRAMPctNonlinear, rec.Predicted.BRAMPctLinear)
	val := rep.Artifacts.Validation
	fmt.Fprintf(stdout, "actual:    runtime %.6f s (%+.2f%%), %v\n",
		float64(val.Cycles)/25e6, val.RuntimePct, val.Resources)
	return 0
}

// printTrace finishes the -trace tracer and prints the stage breakdown:
// the "tune" root's wall time, each direct-child stage's aggregate
// duration and share (the "other" line is the root's own time, so the
// shares sum to 100%), and the measurement cache outcomes.
func printTrace(t *obs.Tracer, w io.Writer) {
	t.Finish()
	tr := t.Snapshot()
	root, lines, ok := tr.Breakdown()
	if !ok {
		fmt.Fprintln(w, "\ntrace: no spans recorded")
		return
	}
	fmt.Fprintf(w, "\ntrace: %s %v total, %d spans", root.Name,
		root.Duration().Round(time.Microsecond), len(tr.Spans))
	if tr.Dropped > 0 {
		fmt.Fprintf(w, " (%d dropped)", tr.Dropped)
	}
	fmt.Fprintln(w)
	for _, ln := range lines {
		fmt.Fprintf(w, "  %-14s %12v  x%-4d %5.1f%%\n",
			ln.Name, ln.Duration.Round(time.Microsecond), ln.Count, ln.Pct)
	}
	var hits, waits, misses int
	for _, rec := range tr.Spans {
		if rec.Name != "measure" {
			continue
		}
		if a, found := rec.Attr("outcome"); found {
			switch a.Str {
			case "hit":
				hits++
			case "wait":
				waits++
			case "miss":
				misses++
			}
		}
	}
	if n := hits + waits + misses; n > 0 {
		fmt.Fprintf(w, "  measurements: %d total (%d simulated, %d cache hits, %d joined in-flight)\n",
			n, misses, hits, waits)
	}
}

// writeJSON emits the report document on stdout.
func writeJSON(rep *core.Report, stdout, stderr io.Writer) int {
	data, err := rep.MarshalIndent()
	if err != nil {
		fmt.Fprintf(stderr, "autoarch: %v\n", err)
		return 1
	}
	if _, err := stdout.Write(data); err != nil {
		fmt.Fprintf(stderr, "autoarch: %v\n", err)
		return 1
	}
	return 0
}

// runPhases executes the -phases mode: interval profiling, phase
// detection, per-phase solves and the reconfiguration decision.
func runPhases(ctx context.Context, sess *core.Session, req core.Request, jsonOut bool, stdout, stderr, progress io.Writer) int {
	fmt.Fprintf(progress, "phase-aware tuning of %s (%d variables, %s scale, interval %d instructions)...\n",
		req.App, req.Space.Len(), req.Scale, req.Phases.IntervalInstructions)
	start := time.Now()
	rep, err := sess.Tune(ctx, req)
	if err != nil {
		fmt.Fprintf(stderr, "autoarch: %v\n", err)
		return 1
	}
	ph := rep.Phases
	fmt.Fprintf(progress, "tuned in %v: %d intervals, %d phases, %d segments\n",
		time.Since(start).Round(time.Millisecond), len(ph.Trace.Assignments), ph.Trace.Phases, len(ph.Trace.Segments))

	if jsonOut {
		return writeJSON(rep, stdout, stderr)
	}

	fmt.Fprintf(stdout, "\nbase: %d cycles (%.6f s)\n", rep.Base.Cycles, rep.Base.Seconds)
	fmt.Fprintf(stdout, "\n%-6s %10s %13s %14s  %s\n", "phase", "intervals", "instructions", "base cycles", "recommended changes")
	for _, p := range ph.Recommendations {
		changes := strings.Join(p.Recommendation.Changes, " ")
		if changes == "" {
			changes = "(keep base)"
		}
		fmt.Fprintf(stdout, "%-6d %10d %13d %14d  %s\n", p.Phase, p.Intervals, p.Instructions, p.BaseCycles, changes)
	}
	wholeChanges := strings.Join(rep.Recommendation.Changes, " ")
	if wholeChanges == "" {
		wholeChanges = "(keep base)"
	}
	fmt.Fprintf(stdout, "\nwhole-program recommendation: %s\n", wholeChanges)
	fmt.Fprintf(stdout, "schedule: %d segments, %d reconfigurations costing %d cycles total (full reshape = %d)\n",
		len(ph.Schedule), ph.Switches, ph.SwitchCostCycles, ph.SwitchPenaltyCycles)
	for _, seg := range ph.Schedule {
		if seg.Switch {
			fmt.Fprintf(stdout, "  switch before intervals %d-%d: %d parameters change (%d cycles)\n",
				seg.Start, seg.End, seg.ChangedVars, seg.SwitchCostCycles)
		}
	}
	fmt.Fprintf(stdout, "modeled cycles: per-phase %.0f (switch costs included) vs whole-program %.0f\n",
		ph.PerPhaseCycles, ph.WholeProgramCycles)
	if ph.PerPhaseWins {
		fmt.Fprintf(stdout, "verdict: per-phase reconfiguration wins by %.2f%%\n", ph.SavingsPct)
	} else {
		fmt.Fprintf(stdout, "verdict: single whole-program configuration wins by %.2f%%\n", -ph.SavingsPct)
	}
	if rep.Replay != nil {
		printReplay(stdout, "replay", rep.Replay)
	}
	if rep.Online != nil {
		printReplay(stdout, "online", &rep.Online.ReplayBlock)
		fmt.Fprintf(stdout, "  divergences from schedule: %d intervals, unclassified: %d\n",
			rep.Online.Divergences, rep.Online.Unclassified)
	}
	return 0
}

// printReplay renders one replayed (or online-adapted) run: the actual
// per-segment cycles and the conformance error against the modeled
// schedule cost.
func printReplay(stdout io.Writer, mode string, blk *core.ReplayBlock) {
	fmt.Fprintf(stdout, "\n%s: %d segments, %d switches costing %d cycles\n",
		mode, len(blk.Segments), blk.Switches, blk.SwitchCostCycles)
	for _, seg := range blk.Segments {
		marker := ""
		if seg.Switch {
			marker = fmt.Sprintf("  (switch: %d parameters, %d cycles)", seg.ChangedVars, seg.SwitchCostCycles)
		}
		fmt.Fprintf(stdout, "  segment %d phase %d intervals %d-%d: %d cycles%s\n",
			seg.Segment, seg.Phase, seg.Start, seg.End, seg.Cycles, marker)
	}
	fmt.Fprintf(stdout, "  actual %d cycles (simulated %d + switch %d) vs modeled %.0f: error %+.3f%%\n",
		blk.ActualCycles, blk.SimulatedCycles, blk.SwitchCostCycles, blk.ModeledCycles, blk.ErrorPct)
}
