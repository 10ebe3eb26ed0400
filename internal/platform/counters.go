package platform

import (
	"sync/atomic"

	"liquidarch/internal/cpu"
)

// Process-wide diagnostic counters. They aggregate superblock, replay
// and trace activity across all engines for the daemon's /v1/metrics
// endpoint; none of them feed any report.
var (
	ctrSBCompiled atomic.Uint64
	ctrSBHits     atomic.Uint64
	ctrSBDeopts   atomic.Uint64

	ctrReplayRuns     atomic.Uint64
	ctrReplaySwitches atomic.Uint64
	ctrOnlineRuns     atomic.Uint64
	ctrOnlineSwitches atomic.Uint64

	ctrTraceRecords  atomic.Uint64
	ctrTraceTimed    atomic.Uint64
	ctrTraceDeclined atomic.Uint64
	ctrTraceShared   atomic.Uint64
	ctrTraceRecordNs atomic.Uint64
	ctrTraceTimeNs   atomic.Uint64
	ctrTraceStepped  atomic.Uint64
	ctrTraceFollowed atomic.Uint64
	ctrReplayTimed   atomic.Uint64
)

// TuningCounters is a point-in-time snapshot of the process-wide
// execution-tuning activity, for the daemon's metrics endpoint.
type TuningCounters struct {
	// SuperblockCompiled, SuperblockHits and SuperblockDeopts aggregate
	// the per-core superblock counters over every run this process
	// executed.
	SuperblockCompiled uint64 `json:"superblock_compiled"`
	SuperblockHits     uint64 `json:"superblock_hits"`
	SuperblockDeopts   uint64 `json:"superblock_deopts"`
	// ParallelRuns is always 0: every run is serial (DESIGN.md §17). The
	// field stays only because the repository benchmark (perfbench)
	// reports it as platform.parallel_runs; it is its only reader.
	ParallelRuns uint64 `json:"parallel_runs"`
	// SuperblockHitRatePct is Hits/(Hits+Deopts) as a percentage: the
	// share of specialized-plan entries that ran to completion. It is
	// derived on snapshot.
	SuperblockHitRatePct float64 `json:"superblock_hit_rate_pct"`
	// ReplayRuns and ReplaySwitches count schedule-replay simulations
	// (ReplaySchedule) and the mid-run reconfigurations they performed;
	// OnlineRuns and OnlineSwitches the same for closed-loop online runs
	// (ReplayOnline). Like every tuning counter these never feed a
	// report — replay results come from the simulated program alone.
	// ReplayTimed counts the replays and online runs among them that
	// were timed from a recording (Trace.ReplaySchedule and
	// Trace.ReplayOnline) instead of executing the program.
	ReplayRuns     uint64 `json:"replay_runs"`
	ReplaySwitches uint64 `json:"replay_switches"`
	OnlineRuns     uint64 `json:"online_runs"`
	OnlineSwitches uint64 `json:"online_switches"`
	ReplayTimed    uint64 `json:"trace_replays"`
	// TraceRecords counts recording runs (Record), TraceTimed the reports
	// derived from a trace (Trace.Time) and TraceDeclined the
	// configurations a trace declined, which then ran in full
	// (DESIGN.md §22). TraceShared counts the timed reports served from a
	// timing class already walked or seeded by the recording run, so
	// TraceTimed-TraceShared is the number of walks. TraceRecordNs and
	// TraceTimeNs are the wall time spent recording and timing.
	// TraceStepInstrs counts the instructions recordings executed on the
	// reference Step path: only the opcodes the fast loop hands to Step
	// (SAVE, RESTORE, Ticc), so a recording that fell back to
	// single-stepping shows as a jump here. TraceFollowed counts the
	// walks made behind a recording while it ran (Trace.Follow), which
	// are among the walks TraceTimed-TraceShared counts.
	TraceRecords    uint64 `json:"trace_records"`
	TraceTimed      uint64 `json:"trace_timed"`
	TraceDeclined   uint64 `json:"trace_declined"`
	TraceShared     uint64 `json:"trace_shared"`
	TraceRecordNs   uint64 `json:"trace_record_ns"`
	TraceTimeNs     uint64 `json:"trace_time_ns"`
	TraceStepInstrs uint64 `json:"trace_step_instrs"`
	TraceFollowed   uint64 `json:"trace_followed"`
}

// Counters returns the current tuning-counter snapshot.
func Counters() TuningCounters {
	c := TuningCounters{
		SuperblockCompiled: ctrSBCompiled.Load(),
		SuperblockHits:     ctrSBHits.Load(),
		SuperblockDeopts:   ctrSBDeopts.Load(),
		ReplayRuns:         ctrReplayRuns.Load(),
		ReplaySwitches:     ctrReplaySwitches.Load(),
		OnlineRuns:         ctrOnlineRuns.Load(),
		OnlineSwitches:     ctrOnlineSwitches.Load(),
		ReplayTimed:        ctrReplayTimed.Load(),
		TraceRecords:       ctrTraceRecords.Load(),
		TraceTimed:         ctrTraceTimed.Load(),
		TraceDeclined:      ctrTraceDeclined.Load(),
		TraceShared:        ctrTraceShared.Load(),
		TraceRecordNs:      ctrTraceRecordNs.Load(),
		TraceTimeNs:        ctrTraceTimeNs.Load(),
		TraceStepInstrs:    ctrTraceStepped.Load(),
		TraceFollowed:      ctrTraceFollowed.Load(),
	}
	if total := c.SuperblockHits + c.SuperblockDeopts; total > 0 {
		c.SuperblockHitRatePct = 100 * float64(c.SuperblockHits) / float64(total)
	}
	return c
}

// foldSuperblocks folds core's superblock activity since the watermark
// seen into the process-wide counters and advances seen.
func foldSuperblocks(core *cpu.Core, seen *cpu.SuperblockStats) {
	sb := core.SuperblockStats()
	ctrSBCompiled.Add(sb.Compiled - seen.Compiled)
	ctrSBHits.Add(sb.Hits - seen.Hits)
	ctrSBDeopts.Add(sb.Deopts - seen.Deopts)
	*seen = sb
}
