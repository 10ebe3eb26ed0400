// Package profiler is the reproduction's analogue of the Liquid
// Architecture platform's statistics module (paper Section 2.3, the
// source of every runtime measurement the technique consumes): a
// cycle-accurate, non-intrusive profile of an application run, with the
// stall budget broken down by cause.
package profiler

import (
	"fmt"
	"strings"
)

// DefaultClockHz is the processor clock the paper's board runs at; it is
// used only to convert cycles into the "seconds" the paper's tables print.
const DefaultClockHz = 25_000_000

// Stats is the profile of one run. Cycle counters are exact; the sum of
// the stall categories plus one cycle per instruction equals Cycles.
type Stats struct {
	Cycles       uint64
	Instructions uint64

	// Instruction mix.
	Loads, Stores    uint64
	Branches         uint64
	TakenBranches    uint64
	AnnulledSlots    uint64
	Calls, Jumps     uint64
	Mults, Divs      uint64
	Saves, Restores  uint64
	WindowOverflows  uint64
	WindowUnderflows uint64

	// Stall/latency budget, in cycles.
	ICacheStall     uint64
	DCacheStall     uint64
	WriteBufStall   uint64
	StoreCycles     uint64 // extra non-stall cycles of store instructions
	LoadCycles      uint64 // extra non-stall cycles of load instructions
	LoadInterlock   uint64
	ICCHoldStall    uint64
	BranchPenalty   uint64
	JumpPenalty     uint64
	MulStall        uint64
	DivStall        uint64
	WindowTrapStall uint64
	DecodeStall     uint64
	HaltCycles      uint64
}

// NumCounters is the number of counters in a Stats.
const NumCounters = 29

// Counters lists the counters of s in declaration order. The durable
// codecs (measurement-store entries, model artifacts) write and read a
// profile through this one list, so a counter added to Stats must be
// added here, and both codecs then carry it.
func (s *Stats) Counters() [NumCounters]*uint64 {
	return [NumCounters]*uint64{
		&s.Cycles, &s.Instructions,
		&s.Loads, &s.Stores, &s.Branches, &s.TakenBranches, &s.AnnulledSlots,
		&s.Calls, &s.Jumps, &s.Mults, &s.Divs, &s.Saves, &s.Restores,
		&s.WindowOverflows, &s.WindowUnderflows,
		&s.ICacheStall, &s.DCacheStall, &s.WriteBufStall, &s.StoreCycles,
		&s.LoadCycles, &s.LoadInterlock, &s.ICCHoldStall, &s.BranchPenalty,
		&s.JumpPenalty, &s.MulStall, &s.DivStall, &s.WindowTrapStall,
		&s.DecodeStall, &s.HaltCycles,
	}
}

// Sub returns the profile delta s - o, field by field. With o a snapshot
// taken earlier in the same run, the result is the profile of the
// stretch in between — the interval-profiling primitive.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Cycles:           s.Cycles - o.Cycles,
		Instructions:     s.Instructions - o.Instructions,
		Loads:            s.Loads - o.Loads,
		Stores:           s.Stores - o.Stores,
		Branches:         s.Branches - o.Branches,
		TakenBranches:    s.TakenBranches - o.TakenBranches,
		AnnulledSlots:    s.AnnulledSlots - o.AnnulledSlots,
		Calls:            s.Calls - o.Calls,
		Jumps:            s.Jumps - o.Jumps,
		Mults:            s.Mults - o.Mults,
		Divs:             s.Divs - o.Divs,
		Saves:            s.Saves - o.Saves,
		Restores:         s.Restores - o.Restores,
		WindowOverflows:  s.WindowOverflows - o.WindowOverflows,
		WindowUnderflows: s.WindowUnderflows - o.WindowUnderflows,
		ICacheStall:      s.ICacheStall - o.ICacheStall,
		DCacheStall:      s.DCacheStall - o.DCacheStall,
		WriteBufStall:    s.WriteBufStall - o.WriteBufStall,
		StoreCycles:      s.StoreCycles - o.StoreCycles,
		LoadCycles:       s.LoadCycles - o.LoadCycles,
		LoadInterlock:    s.LoadInterlock - o.LoadInterlock,
		ICCHoldStall:     s.ICCHoldStall - o.ICCHoldStall,
		BranchPenalty:    s.BranchPenalty - o.BranchPenalty,
		JumpPenalty:      s.JumpPenalty - o.JumpPenalty,
		MulStall:         s.MulStall - o.MulStall,
		DivStall:         s.DivStall - o.DivStall,
		WindowTrapStall:  s.WindowTrapStall - o.WindowTrapStall,
		DecodeStall:      s.DecodeStall - o.DecodeStall,
		HaltCycles:       s.HaltCycles - o.HaltCycles,
	}
}

// Add accumulates o into s, field by field — the inverse of Sub, used to
// aggregate interval profiles back into per-phase totals.
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.Instructions += o.Instructions
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Branches += o.Branches
	s.TakenBranches += o.TakenBranches
	s.AnnulledSlots += o.AnnulledSlots
	s.Calls += o.Calls
	s.Jumps += o.Jumps
	s.Mults += o.Mults
	s.Divs += o.Divs
	s.Saves += o.Saves
	s.Restores += o.Restores
	s.WindowOverflows += o.WindowOverflows
	s.WindowUnderflows += o.WindowUnderflows
	s.ICacheStall += o.ICacheStall
	s.DCacheStall += o.DCacheStall
	s.WriteBufStall += o.WriteBufStall
	s.StoreCycles += o.StoreCycles
	s.LoadCycles += o.LoadCycles
	s.LoadInterlock += o.LoadInterlock
	s.ICCHoldStall += o.ICCHoldStall
	s.BranchPenalty += o.BranchPenalty
	s.JumpPenalty += o.JumpPenalty
	s.MulStall += o.MulStall
	s.DivStall += o.DivStall
	s.WindowTrapStall += o.WindowTrapStall
	s.DecodeStall += o.DecodeStall
	s.HaltCycles += o.HaltCycles
}

// CPI returns cycles per instruction, or 0 for an empty profile.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// Seconds converts the cycle count to seconds at the given clock; a
// non-positive clock selects DefaultClockHz.
func (s Stats) Seconds(clockHz float64) float64 {
	if clockHz <= 0 {
		clockHz = DefaultClockHz
	}
	return float64(s.Cycles) / clockHz
}

// StallTotal sums every stall/latency category.
func (s Stats) StallTotal() uint64 {
	return s.ICacheStall + s.DCacheStall + s.WriteBufStall + s.StoreCycles +
		s.LoadCycles + s.LoadInterlock + s.ICCHoldStall + s.BranchPenalty +
		s.JumpPenalty + s.MulStall + s.DivStall + s.WindowTrapStall +
		s.DecodeStall + s.HaltCycles
}

// ConsistencyError verifies the internal invariant that every cycle is
// either the base cycle of an instruction or attributed to exactly one
// stall category. It returns nil when the profile balances.
func (s Stats) ConsistencyError() error {
	want := s.Instructions + s.AnnulledSlots + s.StallTotal()
	if s.Cycles != want {
		return fmt.Errorf("profiler: %d cycles but %d attributed (%d instructions + %d annulled + %d stalls)",
			s.Cycles, want, s.Instructions, s.AnnulledSlots, s.StallTotal())
	}
	return nil
}

// String renders a human-readable profile report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles        %12d  (%.6f s @ 25 MHz)\n", s.Cycles, s.Seconds(0))
	fmt.Fprintf(&b, "instructions  %12d  (CPI %.3f)\n", s.Instructions, s.CPI())
	fmt.Fprintf(&b, "mix: loads %d stores %d branches %d (taken %d) calls %d jumps %d mults %d divs %d save/restore %d/%d\n",
		s.Loads, s.Stores, s.Branches, s.TakenBranches, s.Calls, s.Jumps, s.Mults, s.Divs, s.Saves, s.Restores)
	fmt.Fprintf(&b, "window traps: overflow %d underflow %d\n", s.WindowOverflows, s.WindowUnderflows)
	row := func(name string, v uint64) {
		if v == 0 {
			return
		}
		fmt.Fprintf(&b, "  %-18s %12d  (%5.2f%%)\n", name, v, 100*float64(v)/float64(s.Cycles))
	}
	b.WriteString("stall budget:\n")
	row("icache", s.ICacheStall)
	row("dcache", s.DCacheStall)
	row("write buffer", s.WriteBufStall)
	row("load cycles", s.LoadCycles)
	row("store cycles", s.StoreCycles)
	row("load interlock", s.LoadInterlock)
	row("icc hold", s.ICCHoldStall)
	row("branch penalty", s.BranchPenalty)
	row("jump penalty", s.JumpPenalty)
	row("mul", s.MulStall)
	row("div", s.DivStall)
	row("window traps", s.WindowTrapStall)
	row("decode", s.DecodeStall)
	return b.String()
}
