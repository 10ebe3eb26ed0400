package core

import (
	"context"
	"fmt"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/phase"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
)

// Schedule replay and online adaptation — the decision half's closing
// of the loop (DESIGN.md §19). Both modes run one extra simulation per
// request through platform.ReplaySchedule/ReplayOnline, entirely
// outside the measurement provider: they reshape the configuration
// mid-run, which no cached measurement describes, and their outputs are
// conformance figures, not model inputs. Request.Replay and
// Request.Online therefore never participate in modelKey or
// measure.Key — a tuned session's caches are byte-identical with or
// without them. When the request built its model, the simulation is a
// walk of the build's recording (measure.Recording), which answers
// exactly what the run would; otherwise, or when the trace declines, it
// runs in full. The span says which (sim=walk|full, sim_declined).

// replayInputs bundles what both modes need from a finished phase run.
type replayInputs struct {
	trace *phase.Trace
	recs  []*Recommendation
	space *config.Space
	popts PhaseOptions
	// modeled is the schedule's predicted whole-run cost
	// (PhaseBlock.PerPhaseCycles), the figure the replay is judged
	// against.
	modeled float64
	opts    platform.Options
}

func gatherReplayInputs(rep *Report, req Request, popts PhaseOptions) (*replayInputs, error) {
	if rep.Phases == nil || rep.Artifacts == nil || len(rep.Artifacts.PhaseRecommendations) == 0 {
		return nil, fmt.Errorf("core: replay requires a completed phase run")
	}
	return &replayInputs{
		trace:   rep.Phases.Trace,
		recs:    rep.Artifacts.PhaseRecommendations,
		space:   rep.Artifacts.Model.Space,
		popts:   popts,
		modeled: rep.Phases.PerPhaseCycles,
		opts: platform.Options{
			SampleInstructions:   req.SampleInstructions,
			IntervalInstructions: popts.IntervalInstructions,
		},
	}, nil
}

// attachReplay executes the precomputed per-phase schedule for real and
// attaches the conformance block to the report.
func attachReplay(ctx context.Context, rep *Report, b *progs.Benchmark, req Request, popts PhaseOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	in, err := gatherReplayInputs(rep, req, popts)
	if err != nil {
		return err
	}
	prog, err := b.Assemble(req.Scale)
	if err != nil {
		return err
	}
	steps := make([]platform.ReplayStep, len(in.trace.Segments))
	for i, seg := range in.trace.Segments {
		steps[i] = platform.ReplayStep{
			Config:    in.recs[seg.Phase].Config,
			Intervals: seg.End - seg.Start + 1,
		}
	}
	steps[len(steps)-1].Intervals = -1 // the trace's final segment runs to completion
	rr, err := replayed(ctx, prog, in.opts,
		func(tr *platform.Trace) (*platform.ReplayReport, string, error) { return tr.ReplaySchedule(steps) },
		func() (*platform.ReplayReport, error) { return platform.ReplaySchedule(prog, steps, in.opts) })
	if err != nil {
		return err
	}
	if !rr.Sampled && rr.ExitCode != 0 {
		return fmt.Errorf("core: replayed %s exited with code %d", b.Name, rr.ExitCode)
	}
	// The replay produces one segment per schedule step (interval
	// boundaries are instruction counts, so the partition matches the
	// trace's by construction); phases are read off the trace segments.
	phaseOf := func(segIdx int) int {
		if segIdx < len(in.trace.Segments) {
			return in.trace.Segments[segIdx].Phase
		}
		return in.trace.Segments[len(in.trace.Segments)-1].Phase
	}
	rep.Replay = buildReplayBlock(rr, in, phaseOf)
	return nil
}

// attachOnline runs the closed-loop mode — live classification against
// the trace's representatives, no schedule — and attaches its block,
// including the divergence count against the precomputed schedule.
func attachOnline(ctx context.Context, rep *Report, b *progs.Benchmark, req Request, popts PhaseOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	in, err := gatherReplayInputs(rep, req, popts)
	if err != nil {
		return err
	}
	prog, err := b.Assemble(req.Scale)
	if err != nil {
		return err
	}
	cls, err := in.trace.NewClassifier()
	if err != nil {
		return err
	}
	// The run opens under the trace's first phase (known before any
	// interval completes); thereafter the classification of interval i
	// picks the configuration for interval i+1 — a last-value predictor
	// with one interval of reaction lag, the standard online phase
	// assumption that the current behaviour persists.
	// A walk that declines midway has decided a prefix of the run, so
	// each run starts the decisions afresh.
	first := in.trace.Segments[0].Phase
	var (
		chosen       []int // phase whose config interval i ran under
		unclassified int
		cur          int
	)
	decide := func(i int, iv platform.Interval) config.Config {
		p := cls.Classify(iv.Signature)
		if p < 0 {
			unclassified++
			p = cur // novel behaviour: hold the current configuration
		}
		cur = p
		chosen = append(chosen, p)
		return in.recs[p].Config
	}
	restart := func() { chosen, unclassified, cur = []int{first}, 0, first }
	rr, err := replayed(ctx, prog, in.opts,
		func(tr *platform.Trace) (*platform.ReplayReport, string, error) {
			restart()
			rr, declined := tr.ReplayOnline(in.recs[first].Config, decide)
			return rr, declined, nil
		},
		func() (*platform.ReplayReport, error) {
			restart()
			return platform.ReplayOnline(prog, in.recs[first].Config, decide, in.opts)
		})
	if err != nil {
		return err
	}
	if !rr.Sampled && rr.ExitCode != 0 {
		return fmt.Errorf("core: online run of %s exited with code %d", b.Name, rr.ExitCode)
	}
	divergences := 0
	for i := 0; i < len(chosen) && i < len(in.trace.Assignments); i++ {
		if in.recs[chosen[i]].Config != in.recs[in.trace.Assignments[i]].Config {
			divergences++
		}
	}
	block := buildReplayBlockSegments(rr, in, func(seg platform.ReplaySegment) int {
		if seg.Start < len(chosen) {
			return chosen[seg.Start]
		}
		return chosen[len(chosen)-1]
	})
	rep.Online = &OnlineBlock{
		ReplayBlock:  *block,
		Divergences:  divergences,
		Unclassified: unclassified,
	}
	return nil
}

// replayed answers one replay of prog under opts: timed from the
// recording on ctx's trace scope when there is one and it stands in for
// the run, in full otherwise. It notes which on ctx's span: sim=walk, or
// sim=full with the reason in sim_declined.
func replayed(ctx context.Context, prog *asm.Program, opts platform.Options,
	walk func(*platform.Trace) (*platform.ReplayReport, string, error),
	full func() (*platform.ReplayReport, error)) (*platform.ReplayReport, error) {
	span := obs.Current(ctx)
	declined := "no recording"
	if tr, ok := measure.Recording(ctx, prog, opts); ok {
		rr, why, err := walk(tr)
		if err != nil {
			return nil, err
		}
		if why == "" {
			span.Set(obs.String("sim", "walk"))
			return rr, nil
		}
		declined = why
	}
	span.Set(obs.String("sim", "full"), obs.String("sim_declined", declined))
	return full()
}

// buildReplayBlock assembles the report block from a platform replay,
// reading each segment's phase off its index.
func buildReplayBlock(rr *platform.ReplayReport, in *replayInputs, phaseOf func(int) int) *ReplayBlock {
	return buildReplayBlockSegments(rr, in, func(seg platform.ReplaySegment) int {
		return phaseOf(seg.Index)
	})
}

// buildReplayBlockSegments assembles the report block, charging each
// reconfiguration boundary the same partial-reconfiguration price the
// modeled schedule uses: SwitchPenaltyCycles scaled by the parameters
// the transition actually changes.
func buildReplayBlockSegments(rr *platform.ReplayReport, in *replayInputs, phaseFor func(platform.ReplaySegment) int) *ReplayBlock {
	block := &ReplayBlock{
		IntervalInstructions: rr.IntervalInstructions,
		SimulatedCycles:      rr.Stats.Cycles,
		ModeledCycles:        in.modeled,
		ExitCode:             rr.ExitCode,
		Checksum:             rr.Checksum,
		Sampled:              rr.Sampled,
	}
	prevPhase := -1
	for _, seg := range rr.Segments {
		p := phaseFor(seg)
		entry := ReplaySegmentReport{
			Segment:      seg.Index,
			Phase:        p,
			Start:        seg.Start,
			End:          seg.End,
			Config:       seg.Config.String(),
			Instructions: seg.Instructions,
			Cycles:       seg.Stats.Cycles,
		}
		if seg.Switched && prevPhase >= 0 {
			changed := changedParams(in.space, in.recs[prevPhase].Selection, in.recs[p].Selection)
			entry.Switch = true
			entry.ChangedVars = changed
			entry.SwitchCostCycles = switchCost(in.popts.SwitchPenaltyCycles, changed)
			block.Switches++
			block.SwitchCostCycles += entry.SwitchCostCycles
		}
		block.Segments = append(block.Segments, entry)
		prevPhase = p
	}
	block.ActualCycles = block.SimulatedCycles + block.SwitchCostCycles
	if block.ActualCycles > 0 {
		block.ErrorPct = 100 * (block.ModeledCycles - float64(block.ActualCycles)) / float64(block.ActualCycles)
	}
	return block
}
