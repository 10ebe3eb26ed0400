package platform

import (
	"sync/atomic"

	"liquidarch/internal/cpu"
)

// Process-wide tuning default and diagnostic counters. Options inherit
// the default when SuperblockThreshold is zero, so one SetDefaultTuning
// call (a CLI flag, a daemon option) retunes every subsequent run without
// threading the knob through each call site. The counters aggregate
// superblock and replay activity across all engines for the daemon's
// /v1/metrics endpoint; none of them feed any report.
var (
	defaultSBThreshold atomic.Int64

	ctrSBCompiled atomic.Uint64
	ctrSBHits     atomic.Uint64
	ctrSBDeopts   atomic.Uint64

	ctrReplayRuns     atomic.Uint64
	ctrReplaySwitches atomic.Uint64
	ctrOnlineRuns     atomic.Uint64
	ctrOnlineSwitches atomic.Uint64
)

func init() {
	defaultSBThreshold.Store(cpu.DefaultSuperblockThreshold)
}

// SetDefaultTuning sets the process-wide superblock default.
// superblockThreshold <= 0 disables superblock specialization by default;
// a positive value compiles hot blocks at that taken-branch heat. The
// knob never changes any reported result — only wall-clock speed
// (DESIGN.md §17).
func SetDefaultTuning(superblockThreshold int) {
	defaultSBThreshold.Store(int64(max(superblockThreshold, 0)))
}

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
	ReplayRuns     uint64 `json:"replay_runs"`
	ReplaySwitches uint64 `json:"replay_switches"`
	OnlineRuns     uint64 `json:"online_runs"`
	OnlineSwitches uint64 `json:"online_switches"`
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
	}
	if total := c.SuperblockHits + c.SuperblockDeopts; total > 0 {
		c.SuperblockHitRatePct = 100 * float64(c.SuperblockHits) / float64(total)
	}
	return c
}

// foldSuperblockCounters folds the delta since the engine's last run into
// the process-wide counters.
func (e *Engine) foldSuperblockCounters() {
	sb := e.core.SuperblockStats()
	if sb == e.lastSB {
		return
	}
	ctrSBCompiled.Add(sb.Compiled - e.lastSB.Compiled)
	ctrSBHits.Add(sb.Hits - e.lastSB.Hits)
	ctrSBDeopts.Add(sb.Deopts - e.lastSB.Deopts)
	e.lastSB = sb
}
