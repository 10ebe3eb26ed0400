package cpu

import (
	"fmt"

	"liquidarch/internal/isa"
	"liquidarch/internal/mem"
)

// Fast-path execution engine (DESIGN.md §8).
//
// runFast is a trace-free inner interpreter loop that executes the same
// timing semantics as Step, cycle for cycle and counter for counter, but
// restructured for speed:
//
//   - it dispatches on a flattened 16-byte predecoded form (fastInstr)
//     with pre-extended immediates, absolute branch targets, a
//     condition-code truth table and per-op hazard flags, so the hot loop
//     does no sign extension, no displacement arithmetic and no
//     opcode-class predicates;
//   - the trace check, the misaligned-pc check and the out-of-text check
//     are hoisted or collapsed into one unsigned compare per iteration;
//   - every piece of loop-carried state (pc, npc, cycle and instruction
//     counts, the load-hazard scoreboard, the icc-just-set flag, the
//     packed condition codes) lives in locals, and the instruction-mix
//     counters accumulate in a batch that is flushed to profiler.Stats
//     only on exit or around a fallback;
//   - back-to-back accesses to the cache line probed last are credited in
//     bulk (cache.AddReadHits/AddWriteHits) instead of re-probing the tag
//     store: a line probed by the previous access is still resident, so
//     the access is a guaranteed hit, and on the configurations where the
//     skip is enabled a hit has no replacement side effects;
//   - the rare opcodes (SAVE, RESTORE, Ticc, invalid) fall back to the
//     reference Step for that one instruction, so the tricky window-trap
//     and halt semantics exist in exactly one place;
//   - on a recording core (StartRecording) the loop, superblock plans
//     included, also writes the trace of record once, time many
//     (trace.go), and its fallback opcodes go through recordStep.
//
// Equivalence with Step is enforced by the engine-equivalence suite in
// differential_test.go: every benchmark × a representative configuration
// set must produce identical profiles, cache counters, exit codes and
// checksums on both paths.

// Fast-path dispatch codes. CC-setting ALU variants get their own code so
// the hot loop never re-tests the opcode to decide whether to write the
// condition codes.
const (
	fFallback uint8 = iota // SAVE, RESTORE, Ticc, invalid: execute via Step
	fAdd
	fAddCC
	fSub
	fSubCC
	fAnd
	fAndCC
	fOr
	fOrCC
	fXor
	fXorCC
	fAndN
	fOrN
	fXnor
	fSll
	fSrl
	fSra
	fSethi
	fLd
	fLdUB
	fLdSB
	fLdUH
	fLdSH
	fUMul
	fUMulCC
	fSMul
	fSMulCC
	fUDiv
	fSDiv
	fRdY
	fWrY
	fSt
	fStB
	fStH
	fBicc
	fCall
	fJmpl
	// Fused compare-and-branch pairs: a CC-setting ALU op immediately
	// followed by a Bicc collapses into one dispatch (predecoded by
	// fusePairs). The fastInstr carries the ALU op's registers/immediate
	// and the branch's condition mask, annul flags and target — the two
	// halves use disjoint fields. The fused case falls back to plain
	// ALU-only execution when entered as a delay slot (npc != pc+4) or on
	// a sampling boundary; the instruction after it keeps its plain Bicc
	// decode for branches that land on it directly.
	fAddCCBicc
	fSubCCBicc
	fAndCCBicc
	fOrCCBicc
	fXorCCBicc

	// fRunMax bounds the contiguous range [fAdd, fRunMax] of simple ALU
	// ops eligible as branch delay slots and inside straight-line runs:
	// register/immediate ALU (with or without condition codes) and SETHI —
	// no memory access, no control transfer, no Y register, no fallback.
	fRunMax = fSethi
	// fRunnableMax additionally admits loads to straight-line runs
	// ([fAdd, fRunnableMax] is ALU plus the five load forms). A load may
	// only sit inside a run when its successor does not read the loaded
	// register (checked statically by fusePairs), so the load-use
	// interlock cannot fire mid-run. Ops in this range reuse condMask as
	// the run length.
	fRunnableMax = fLdSH
)

// fastInstr flag bits.
const (
	fgUseImm uint8 = 1 << iota
	fgAnnul
	fgBAAnnul // Bicc with cond=always and the annul bit ("ba,a")
	// Hazard flags: whether the load-use interlock check must consider
	// rs1, rs2 and (for stores) rd. They mirror Step's readsReg exactly,
	// including its quirk of checking rs2 on ops that ignore it.
	fgReadsRs1
	fgReadsRs2
	fgReadsRd
	// fgSlotALU marks a Bicc (or fused compare-and-branch) whose delay
	// slot holds a simple ALU op the loop may execute inline (fusePairs).
	fgSlotALU
)

// fastInstr is the flattened fast-path form of one decoded instruction.
// It is exactly 16 bytes so indexing is a shift and two lines of the
// array hold eight instructions.
type fastInstr struct {
	code  uint8
	rd    uint8
	rs1   uint8
	rs2   uint8
	flags uint8
	// condMask: for Bicc (and fused compare-and-branch), bit i is set iff
	// the branch condition holds for packed ICC i. For simple ALU ops the
	// field is reused as the straight-line run length: the number of
	// consecutive simple ALU ops starting here (>= 1), which the main
	// loop retires in a single dispatch iteration.
	condMask uint16
	imm      uint32 // pre-extended immediate; SETHI stores imm<<10
	target   uint32 // absolute Bicc/CALL target address
}

// packICC packs the condition codes into a 4-bit index (N|Z|V|C).
func packICC(icc isa.ICC) uint8 {
	var i uint8
	if icc.N {
		i |= 8
	}
	if icc.Z {
		i |= 4
	}
	if icc.V {
		i |= 2
	}
	if icc.C {
		i |= 1
	}
	return i
}

// unpackICC expands a packed 4-bit index back into the ICC struct.
func unpackICC(i uint8) isa.ICC {
	return isa.ICC{N: i&8 != 0, Z: i&4 != 0, V: i&2 != 0, C: i&1 != 0}
}

// condTable precomputes cond.Holds over all 16 packed ICC values.
func condTable(cond isa.Cond) uint16 {
	var mask uint16
	for i := 0; i < 16; i++ {
		icc := isa.ICC{N: i&8 != 0, Z: i&4 != 0, V: i&2 != 0, C: i&1 != 0}
		if cond.Holds(icc) {
			mask |= 1 << i
		}
	}
	return mask
}

// fastCode maps an architectural opcode to its fast-path dispatch code.
// OpInvalid, OpSave, OpRestore and OpTicc map to fFallback: the window
// traps and the halt trap keep their single implementation in Step.
func fastCode(op isa.Opcode) uint8 {
	switch op {
	case isa.OpAdd:
		return fAdd
	case isa.OpAddCC:
		return fAddCC
	case isa.OpSub:
		return fSub
	case isa.OpSubCC:
		return fSubCC
	case isa.OpAnd:
		return fAnd
	case isa.OpAndCC:
		return fAndCC
	case isa.OpOr:
		return fOr
	case isa.OpOrCC:
		return fOrCC
	case isa.OpXor:
		return fXor
	case isa.OpXorCC:
		return fXorCC
	case isa.OpAndN:
		return fAndN
	case isa.OpOrN:
		return fOrN
	case isa.OpXnor:
		return fXnor
	case isa.OpSll:
		return fSll
	case isa.OpSrl:
		return fSrl
	case isa.OpSra:
		return fSra
	case isa.OpUMul:
		return fUMul
	case isa.OpUMulCC:
		return fUMulCC
	case isa.OpSMul:
		return fSMul
	case isa.OpSMulCC:
		return fSMulCC
	case isa.OpUDiv:
		return fUDiv
	case isa.OpSDiv:
		return fSDiv
	case isa.OpRdY:
		return fRdY
	case isa.OpWrY:
		return fWrY
	case isa.OpSethi:
		return fSethi
	case isa.OpLd:
		return fLd
	case isa.OpLdUB:
		return fLdUB
	case isa.OpLdSB:
		return fLdSB
	case isa.OpLdUH:
		return fLdUH
	case isa.OpLdSH:
		return fLdSH
	case isa.OpSt:
		return fSt
	case isa.OpStB:
		return fStB
	case isa.OpStH:
		return fStH
	case isa.OpBicc:
		return fBicc
	case isa.OpCall:
		return fCall
	case isa.OpJmpl:
		return fJmpl
	}
	return fFallback
}

// predecode flattens one architectural instruction at address pc.
func predecode(in isa.Instr, pc uint32) fastInstr {
	f := fastInstr{
		code: fastCode(in.Op),
		rd:   in.Rd,
		rs1:  in.Rs1,
		rs2:  in.Rs2,
		imm:  uint32(in.Imm),
	}
	if in.UseImm {
		f.flags |= fgUseImm
	}
	if in.Annul {
		f.flags |= fgAnnul
	}
	switch in.Op {
	case isa.OpSethi:
		f.imm = uint32(in.Imm) << 10
	case isa.OpBicc:
		f.target = pc + uint32(in.Disp)*4
		f.condMask = condTable(in.Cond)
		if in.Cond == isa.CondA && in.Annul {
			f.flags |= fgBAAnnul
		}
	case isa.OpCall:
		f.target = pc + uint32(in.Disp)*4
	}
	// Hazard flags, mirroring readsReg: SETHI, Bicc, CALL and RDY read no
	// integer registers at all; everything else reads rs1, reads rs2 when
	// the operand is not an immediate, and stores additionally read rd.
	switch in.Op {
	case isa.OpSethi, isa.OpBicc, isa.OpCall, isa.OpRdY:
	default:
		f.flags |= fgReadsRs1
		if !in.UseImm {
			f.flags |= fgReadsRs2
		}
	}
	if in.Op.IsStore() {
		f.flags |= fgReadsRd
	}
	return f
}

// fusableSlot reports whether a dispatch code is a simple ALU op the
// branch cases may execute inline as a delay slot: register/immediate
// ALU (with or without condition codes) and SETHI — no memory access, no
// control transfer, no Y register, no fallback.
func fusableSlot(code uint8) bool {
	return code >= fAdd && code <= fRunMax
}

// fusePairs rewrites each CC-setting ALU op that immediately precedes a
// conditional branch into a fused compare-and-branch macro-op. The
// follower keeps its plain decode so control flow can still land on it.
// A second pass marks branches whose delay slot is a fusable ALU op
// (fgSlotALU), so the branch dispatch can execute the slot inline too.
func fusePairs(fast []fastInstr) {
	for i := 0; i+1 < len(fast); i++ {
		br := &fast[i+1]
		if br.code != fBicc {
			continue
		}
		var fused uint8
		switch fast[i].code {
		case fAddCC:
			fused = fAddCCBicc
		case fSubCC:
			fused = fSubCCBicc
		case fAndCC:
			fused = fAndCCBicc
		case fOrCC:
			fused = fOrCCBicc
		case fXorCC:
			fused = fXorCCBicc
		default:
			continue
		}
		f := &fast[i]
		f.code = fused
		f.condMask = br.condMask
		f.target = br.target
		// ALU ops never carry annul bits, so the branch's are free to merge.
		f.flags |= br.flags & (fgAnnul | fgBAAnnul)
	}
	for i := range fast {
		var slot int
		switch fast[i].code {
		case fBicc:
			slot = i + 1
		case fAddCCBicc, fSubCCBicc, fAndCCBicc, fOrCCBicc, fXorCCBicc:
			slot = i + 2
		default:
			continue
		}
		if slot < len(fast) && fusableSlot(fast[slot].code) {
			fast[i].flags |= fgSlotALU
		}
	}
	// Straight-line run lengths, computed backwards: an ALU or load op
	// stores in condMask how many consecutive run-eligible ops start at
	// it (itself included); the main loop retires a whole run per
	// dispatch. A run extends past op i when (a) its successor is ALU or
	// a load, and (b) if op i is a load, the successor does not read the
	// loaded register — condition (b) is exactly "the load-use interlock
	// cannot fire", so runs need no per-op hazard machinery. CTIs,
	// stores, mul/div, Y accesses and fallbacks end runs.
	for i := len(fast) - 1; i >= 0; i-- {
		f := &fast[i]
		if f.code < fAdd || f.code > fRunnableMax {
			continue
		}
		run := uint16(1)
		if i+1 < len(fast) && fast[i+1].code >= fAdd && fast[i+1].code <= fRunnableMax && canExtendPast(f, &fast[i+1]) {
			if next := fast[i+1].condMask; next < 255 {
				run = next + 1
			} else {
				run = 255
			}
		}
		f.condMask = run
	}
}

// canExtendPast reports whether a run may continue from op f to its
// successor: always for ALU ops; for loads, only when the successor does
// not hazard-read the loaded register (so no interlock is skipped).
func canExtendPast(f, next *fastInstr) bool {
	if f.code < fLd || f.code > fLdSH || f.rd == 0 {
		return true
	}
	rd := f.rd
	if next.flags&fgReadsRs1 != 0 && next.rs1 == rd {
		return false
	}
	if next.flags&fgReadsRs2 != 0 && next.rs2 == rd {
		return false
	}
	if next.flags&fgReadsRd != 0 && next.rd == rd {
		return false
	}
	return true
}

// fastBytes is the data width of a load or store dispatch code.
func fastBytes(code uint8) uint32 {
	switch code {
	case fLdUB, fLdSB, fStB:
		return 1
	case fLdUH, fLdSH, fStH:
		return 2
	}
	return 4
}

// Packed register-file indices: each instruction's three operands resolve
// (for the current window) to regfile slots that fit in 10 bits each, so
// one uint32 per instruction carries all of them. riRs1/riRs2 read
// rs1/rs2; riRd writes rd except for stores, where it reads rd (%g0 then
// resolves to the zero slot, not the write sink). Masking with riMask
// keeps every access provably inside the 1024-slot register file, so the
// hot loop does register moves with zero bounds checks and no view-table
// indirection.
const riMask = 1023

// setRF writes through the packed rd index (the %g0 sink is baked in, so
// no zero check is needed; the mask keeps the access bounds-check-free).
func setRF(rf *[1024]uint32, ri uint32, v uint32) {
	rf[ri&riMask] = v
}

func packRI(rs1, rs2, rd int32) uint32 {
	return uint32(rs1)<<20 | uint32(rs2)<<10 | uint32(rd)
}

// patchFastRI resolves every predecoded instruction's register numbers
// against the current window's view tables. Called after LoadText and
// again (lazily, from runFast) when SAVE/RESTORE moved the window
// pointer; the paper's benchmarks never rotate windows, so in practice
// it runs once per program load.
func (c *Core) patchFastRI() {
	for i := range c.fast {
		f := &c.fast[i]
		rd := c.viewW[f.rd&31]
		if f.code >= fSt && f.code <= fStH {
			rd = c.viewR[f.rd&31] // stores read rd
		}
		c.fastRI[i] = packRI(c.viewR[f.rs1&31], c.viewR[f.rs2&31], rd)
	}
	// Compiled superblock plans cache resolved indices too; re-resolve
	// them for the new window (their text positions are static).
	for bi := range c.sbBlocks {
		blk := &c.sbBlocks[bi]
		for k := range blk.ops {
			blk.ops[k].ri = c.fastRI[blk.head+uint32(k)]
		}
		if blk.tIdx >= 0 {
			blk.tRI = c.fastRI[blk.tIdx]
			if blk.tFlags&fgSlotALU != 0 {
				si := blk.tIdx + 1
				if blk.tCode != fBicc {
					si = blk.tIdx + 2
				}
				blk.slot.ri = c.fastRI[si]
			}
		}
	}
	c.fastCwp = c.cwp
}

// noLine is the "no cache line known" sentinel. Real line numbers are
// addr>>lineShift with lineShift >= 4, so they never reach it.
const noLine = ^uint32(0)

// fastBatch accumulates the instruction-mix and stall counters of a
// runFast stretch; flush folds them into profiler.Stats in one shot.
type fastBatch struct {
	loads, stores          uint64
	branches, taken        uint64
	annulled               uint64
	calls, jumps           uint64
	mults, divs            uint64
	interlocks, iccHolds   uint64
	wbStall                uint64
	icHits, dcHits, dwHits uint64 // known-hit cache probes, skipped or inline
	icMisses, dcMisses     uint64 // inline direct-mapped read misses (filled)
	dwMisses               uint64 // inline direct-mapped write misses
}

// flush folds the batch into the core's profile and cache counters and
// zeroes it.
func (b *fastBatch) flush(c *Core) {
	s := &c.stats
	s.Loads += b.loads
	s.LoadCycles += b.loads
	s.Stores += b.stores
	s.StoreCycles += 2 * b.stores
	s.Branches += b.branches
	s.TakenBranches += b.taken
	s.AnnulledSlots += b.annulled
	s.Calls += b.calls
	s.Jumps += b.jumps
	s.Mults += b.mults
	s.MulStall += b.mults * c.mulExtra
	s.Divs += b.divs
	s.DivStall += b.divs * c.divExtra
	s.LoadInterlock += b.interlocks * c.loadInterlock
	s.ICCHoldStall += b.iccHolds
	takenCTIs := b.taken + b.calls + b.jumps // every taken CTI pays the branch/decode penalty
	s.BranchPenalty += takenCTIs
	s.DecodeStall += takenCTIs * c.decodeExtra
	s.JumpPenalty += b.jumps * c.jumpExtra
	s.WriteBufStall += b.wbStall
	if b.icHits > 0 {
		c.icache.AddReadHits(b.icHits)
	}
	if b.icMisses > 0 {
		c.icache.AddDirectReadMisses(b.icMisses)
		s.ICacheStall += b.icMisses * c.imissPenalty
	}
	if b.dcHits > 0 {
		c.dcache.AddReadHits(b.dcHits)
	}
	if b.dcMisses > 0 {
		c.dcache.AddDirectReadMisses(b.dcMisses)
		s.DCacheStall += b.dcMisses * c.dmissPenalty
	}
	if b.dwHits > 0 {
		c.dcache.AddWriteHits(b.dwHits)
	}
	if b.dwMisses > 0 {
		c.dcache.AddDirectWriteMisses(b.dwMisses)
	}
	*b = fastBatch{}
}

// runTo executes until the program halts or the total retired instruction
// count reaches target. Tracing runs take the reference Step loop so the
// disassembly hook stays out of the fast path entirely. A recording core
// runs the fast loop, which records as it goes, and marks a cut when it
// stops.
func (c *Core) runTo(target uint64) error {
	if c.traceW != nil && c.rec == nil {
		for !c.halted && c.stats.Instructions < target {
			if err := c.Step(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.runFast(target); err != nil {
		return err
	}
	if c.rec != nil {
		c.rec.cut(c)
	}
	return nil
}

// runFast drives the trace-free fast loop. runFastInner executes the
// predecoded common opcodes until it halts, reaches target, errors, or
// meets a rare opcode; rare opcodes are executed here on the reference
// Step path (recorded through recordStep on a recording core) and the
// inner loop resumes. The icache batching anchor (the
// line fetched last) survives the round trip; the dcache anchor does not,
// because window traps fill dcache lines.
func (c *Core) runFast(target uint64) error {
	fetchLine := noLine
	for {
		stepNext, err := c.runFastInner(target, fetchLine)
		if err != nil || !stepNext {
			return err
		}
		pc := c.pc
		if c.rec != nil {
			err = c.recordStep()
		} else {
			err = c.Step()
		}
		if err != nil {
			return err
		}
		if c.cwp != c.fastCwp {
			// SAVE/RESTORE rotated the window: re-resolve the packed
			// register indices for the new view.
			c.patchFastRI()
		}
		// Step fetched at pc (fallback opcodes never annul a slot), so its
		// line is the resumed loop's batching anchor.
		fetchLine = pc >> c.icLineShift
	}
}

// runFastInner is the fast execution loop body. It returns stepNext=true
// when it stopped at an instruction that must be executed via Step (rare
// opcode, out-of-text pc, misalignment). All batched state is flushed
// back into the core before returning, whatever the exit path; cycle-exact
// equivalence with Step is the invariant every change here must preserve.
func (c *Core) runFastInner(target uint64, fetchLine uint32) (stepNext bool, retErr error) {
	var (
		fast    = c.fast
		pc, npc = c.pc, c.npc
		instrs  = c.stats.Instructions
		// Cycles are derived, not counted: every instruction costs one
		// base cycle, so Cycles = cyclesBase + (instrs - instrsBase) +
		// extra, where extra accumulates only stall/latency cycles. This
		// keeps one increment per instruction out of the loop.
		cyclesBase = c.stats.Cycles
		instrsBase = c.stats.Instructions
		extra      = uint64(0)
		hazard     = c.loadHazardReg
		// iccSetAt is the instruction count at which the condition codes
		// were last set; "the previous instruction set the codes" (the
		// ICC-hold trigger) is iccSetAt+1 == instrs. The sentinel can
		// never match: instrs is nonzero at every dispatch.
		iccSetAt = ^uint64(0)
		iccIdx   = packICC(c.icc)
		icShift  = c.icLineShift
		dcShift  = c.dcLineShift
		dcSkip   = c.dcLineSkip
		ram      = c.memory.RAM()
		textBase = c.textBase
		imissPen = c.imissPenalty
		// Block-signature collection (interval profiling): nil when
		// disabled, in which case the per-taken-CTI nil check is one
		// predictable branch.
		bbv      = c.bbv
		bbvShift = c.bbvShift
		bbvMask  = uint32(len(c.bbv) - 1)
		rf       = &c.regfile
		fastRI   = c.fastRI
		dcLine   = noLine // dcache line known resident from the last probe
		fb       fastBatch
		// Superblock dispatch state (superblock.go): nil when
		// specialization is off, making the per-dispatch check one
		// predictable branch. sbHits/sbDeopts batch the diagnostic
		// counters the way fb batches the profile.
		sbIdx    = c.sbIndex
		sbHeat   = c.sbHeat
		sbThresh = c.sbThreshold
		sbHits   = uint64(0)
		sbDeopts = uint64(0)
		// Write watermarks for the direct RAM stores below; folded into
		// the memory's dirty range on exit (mem.Widen).
		wlo = uint64(len(ram))
		whi = uint64(0)
		// The recorder of a recording core (trace.go), nil otherwise: a
		// recording run notes each dispatch, flagged instruction, data
		// address and annulled slot behind one predictable nil check.
		rec = c.rec
	)
	if c.iccJustSet {
		iccSetAt = instrs
	}
	// Direct-mapped tag stores for inline probing (nil for multi-way).
	icTags, _, icTagShift, icMask, _ := c.icache.Direct()
	dcTags, _, dcTagShift, dcMask, dcDirect := c.dcache.Direct()

	// The halt trap is a fallback opcode, so c.halted can only flip inside
	// Step between inner-loop invocations: checking it once here keeps the
	// per-instruction loop condition to a single compare.
	if c.halted {
		return false, nil
	}
	if pc&3 != 0 {
		// Misaligned entry pc: Step produces the exact error. Alignment is
		// an induction invariant inside the loop — branch and call targets
		// are pc-relative word displacements and JMPL targets are checked —
		// so it is only tested here.
		return true, nil
	}

loop:
	for instrs < target {
		idx := uint64(pc-textBase) >> 2
		if idx >= uint64(len(fast)) {
			// Out of text: let Step produce its exact error.
			stepNext = true
			break loop
		}
		f := &fast[idx]
		if f.code == fFallback {
			stepNext = true
			break loop
		}
		if rec != nil && uint64(idx)-instrs != rec.key {
			// A new run starts here (trace.go).
			if len(rec.ev) >= rec.chunk {
				rec.decode()
			}
			rec.key = uint64(idx) - instrs
			rec.ev = append(rec.ev, recEvent{num: instrs, arg: uint32(idx)})
		}

		// Superblock dispatch: a compiled head reached in sequential
		// context executes its whole plan (and chains into compiled
		// successors) without returning to the generic dispatch below.
		// Entry requires the block's worst-case instruction count to fit
		// under target so sampling/interval boundaries stay exact; near a
		// boundary the generic loop finishes the block op by op.
		if sbIdx != nil {
			if s := sbIdx[idx]; s > 0 {
				blk := &c.sbBlocks[s-1]
				if npc != pc+4 {
					// DCTI couple: the head is executing as another CTI's
					// delay slot; the plan assumes sequential flow. Deopt.
					sbDeopts++
				} else if instrs+uint64(blk.maxInstrs) <= target {
					spc := pc
					sbDead := false
					// A hazard left by the previously dispatched load is
					// checked once against the block's first instruction —
					// exactly the generic loop's probe; interior load-use
					// charges are static (sbInterlock bits). On every
					// chained entry the hazard is clear by construction.
					if hazard != noHazard {
						if (f.flags&fgReadsRs1 != 0 && c.hazardIndex(f.rs1) == hazard) ||
							(f.flags&fgReadsRs2 != 0 && c.hazardIndex(f.rs2) == hazard) ||
							(f.flags&fgReadsRd != 0 && c.hazardIndex(f.rd) == hazard) {
							fb.interlocks++
							extra += c.loadInterlock
							if rec != nil {
								rec.ev = append(rec.ev, recEvent{num: instrs, kind: flagInterlock})
							}
						}
						hazard = noHazard
					}
				chain:
					for {
						sbHits++
						if rec != nil {
							if uint64(blk.head)-instrs != rec.key {
								if len(rec.ev) >= rec.chunk {
									rec.decode()
								}
								rec.key = uint64(blk.head) - instrs
								rec.ev = append(rec.ev, recEvent{num: instrs, arg: blk.head})
							}
							if blk.ilk != 0 {
								rec.ev = append(rec.ev, recEvent{num: instrs, arg: uint32(blk.ilk), kind: evInterlocks})
								if blk.ilk>>32 != 0 {
									rec.ev = append(rec.ev, recEvent{num: instrs + 32, arg: uint32(blk.ilk >> 32), kind: evInterlocks})
								}
							}
						}
						ops := blk.ops
						for k := 0; k < len(ops); k++ {
							op := ops[k]
							if op.flags&sbOpProbe != 0 {
								// Block head or a static icache line boundary:
								// the only interior fetches whose hit/miss is
								// dynamic. Every other fetch is a same-line hit
								// credited in the batched commit below.
								opc := spc + uint32(k)*4
								if line := opc >> icShift; line == fetchLine {
									fb.icHits++
								} else {
									if icTags != nil {
										if icTags[line&icMask] == opc>>icTagShift {
											fb.icHits++
										} else {
											icTags[line&icMask] = opc >> icTagShift
											fb.icMisses++
											extra += imissPen
										}
									} else if !c.icache.Read(opc) {
										c.stats.ICacheStall += imissPen
										extra += imissPen
									}
									fetchLine = line
								}
							}
							ri := op.ri
							switch op.code {
							case fAdd:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, rf[ri>>20&riMask]+b)
							case fAddCC:
								a, b := rf[ri>>20&riMask], op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								r := a + b
								setRF(rf, ri, r)
								iccIdx = iccIndex(int32(r) < 0, r == 0, (^(a^b)&(a^r))>>31 != 0, r < a)
							case fSub:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, rf[ri>>20&riMask]-b)
							case fSubCC:
								a, b := rf[ri>>20&riMask], op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								r := a - b
								setRF(rf, ri, r)
								iccIdx = iccIndex(int32(r) < 0, r == 0, ((a^b)&(a^r))>>31 != 0, b > a)
							case fAnd:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, rf[ri>>20&riMask]&b)
							case fAndCC:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								r := rf[ri>>20&riMask] & b
								setRF(rf, ri, r)
								iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
							case fOr:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, rf[ri>>20&riMask]|b)
							case fOrCC:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								r := rf[ri>>20&riMask] | b
								setRF(rf, ri, r)
								iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
							case fXor:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, rf[ri>>20&riMask]^b)
							case fXorCC:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								r := rf[ri>>20&riMask] ^ b
								setRF(rf, ri, r)
								iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
							case fAndN:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, rf[ri>>20&riMask]&^b)
							case fOrN:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, rf[ri>>20&riMask]|^b)
							case fXnor:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, ^(rf[ri>>20&riMask] ^ b))
							case fSll:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, rf[ri>>20&riMask]<<(b&31))
							case fSrl:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, rf[ri>>20&riMask]>>(b&31))
							case fSra:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								setRF(rf, ri, uint32(int32(rf[ri>>20&riMask])>>(b&31)))
							case fSethi:
								setRF(rf, ri, op.imm)
							case fUMul, fUMulCC:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								p := uint64(rf[ri>>20&riMask]) * uint64(b)
								c.y = uint32(p >> 32)
								r := uint32(p)
								setRF(rf, ri, r)
								if op.code == fUMulCC {
									iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
								}
							case fSMul, fSMulCC:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								p := int64(int32(rf[ri>>20&riMask])) * int64(int32(b))
								c.y = uint32(uint64(p) >> 32)
								r := uint32(p)
								setRF(rf, ri, r)
								if op.code == fSMulCC {
									iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
								}
							case fLd, fLdUB, fLdSB, fLdUH, fLdSH:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								addr := rf[ri>>20&riMask] + b
								if rec != nil {
									rec.addrs = append(rec.addrs, addr)
									if addr < rec.hi && addr+4 > rec.lo {
										rec.guard(addr, fastBytes(op.code))
									}
								}
								if addr < deviceBase {
									if line := addr >> dcShift; dcSkip && line == dcLine {
										fb.dcHits++
									} else {
										if dcDirect {
											if dcTags[line&dcMask] == addr>>dcTagShift {
												fb.dcHits++
											} else {
												dcTags[line&dcMask] = addr >> dcTagShift
												fb.dcMisses++
												extra += c.dmissPenalty
											}
										} else if !c.dcache.Read(addr) {
											c.stats.DCacheStall += c.dmissPenalty
											extra += c.dmissPenalty
										}
										dcLine = line
									}
								}
								var v uint32
								off := uint64(addr) - uint64(mem.RAMBase)
								switch op.code {
								case fLd:
									if off+4 <= uint64(len(ram)) && addr&3 == 0 {
										v = uint32(ram[off])<<24 | uint32(ram[off+1])<<16 |
											uint32(ram[off+2])<<8 | uint32(ram[off+3])
									} else {
										w, err := c.memory.Read32(addr)
										if err != nil {
											instrs, extra, iccSetAt = c.sbAbort(blk, k, instrs, extra, iccSetAt, &fb)
											fpc := spc + uint32(k)*4
											pc, npc = fpc, fpc+4
											retErr = fmt.Errorf("%w at %#08x", err, fpc)
											break loop
										}
										v = w
									}
								case fLdUB, fLdSB:
									if off < uint64(len(ram)) {
										v = uint32(ram[off])
									} else {
										by, err := c.memory.Read8(addr)
										if err != nil {
											instrs, extra, iccSetAt = c.sbAbort(blk, k, instrs, extra, iccSetAt, &fb)
											fpc := spc + uint32(k)*4
											pc, npc = fpc, fpc+4
											retErr = fmt.Errorf("%w at %#08x", err, fpc)
											break loop
										}
										v = uint32(by)
									}
									if op.code == fLdSB {
										v = uint32(int32(int8(v)))
									}
								case fLdUH, fLdSH:
									if off+2 <= uint64(len(ram)) && addr&1 == 0 {
										v = uint32(ram[off])<<8 | uint32(ram[off+1])
									} else {
										h, err := c.memory.Read16(addr)
										if err != nil {
											instrs, extra, iccSetAt = c.sbAbort(blk, k, instrs, extra, iccSetAt, &fb)
											fpc := spc + uint32(k)*4
											pc, npc = fpc, fpc+4
											retErr = fmt.Errorf("%w at %#08x", err, fpc)
											break loop
										}
										v = uint32(h)
									}
									if op.code == fLdSH {
										v = uint32(int32(int16(v)))
									}
								}
								setRF(rf, ri, v)
								// No dynamic hazard arming: every in-block
								// consumer is charged statically, the
								// terminal's read is tInterlock, and a
								// terminal-less block arms exitHazardRd.
							case fSt, fStB, fStH:
								b := op.imm
								if op.flags&sbOpImm == 0 {
									b = rf[ri>>10&riMask]
								}
								addr := rf[ri>>20&riMask] + b
								if rec != nil {
									rec.addrs = append(rec.addrs, addr)
									if addr < rec.hi && addr+4 > rec.lo {
										rec.guard(addr, fastBytes(op.code))
									}
								}
								v := rf[ri&riMask]
								if addr < deviceBase {
									if line := addr >> dcShift; dcSkip && line == dcLine {
										fb.dwHits++
									} else if dcDirect {
										if dcTags[line&dcMask] == addr>>dcTagShift {
											fb.dwHits++
											dcLine = line
										} else {
											fb.dwMisses++
										}
									} else {
										c.dcache.Write(addr)
									}
									// The batched charges of ops[0..k] haven't
									// landed in instrs/extra yet; op.prefix and
									// the op offset reconstruct the exact issue
									// cycle the generic loop would use.
									stall := c.wbuf.Store(cyclesBase + (instrs - instrsBase) + uint64(k+1) + extra + uint64(op.prefix))
									fb.wbStall += stall
									extra += stall
								}
								off := uint64(addr) - uint64(mem.RAMBase)
								switch op.code {
								case fSt:
									if off+4 <= uint64(len(ram)) && addr&3 == 0 {
										if off < wlo {
											wlo = off
										}
										if off+4 > whi {
											whi = off + 4
										}
										ram[off] = byte(v >> 24)
										ram[off+1] = byte(v >> 16)
										ram[off+2] = byte(v >> 8)
										ram[off+3] = byte(v)
									} else if err := c.memory.Write32(addr, v); err != nil {
										instrs, extra, iccSetAt = c.sbAbort(blk, k, instrs, extra, iccSetAt, &fb)
										fpc := spc + uint32(k)*4
										pc, npc = fpc, fpc+4
										retErr = fmt.Errorf("%w at %#08x", err, fpc)
										break loop
									}
								case fStB:
									if off < uint64(len(ram)) {
										if off < wlo {
											wlo = off
										}
										if off+1 > whi {
											whi = off + 1
										}
										ram[off] = uint8(v)
									} else if err := c.memory.Write8(addr, uint8(v)); err != nil {
										instrs, extra, iccSetAt = c.sbAbort(blk, k, instrs, extra, iccSetAt, &fb)
										fpc := spc + uint32(k)*4
										pc, npc = fpc, fpc+4
										retErr = fmt.Errorf("%w at %#08x", err, fpc)
										break loop
									}
								case fStH:
									if off+2 <= uint64(len(ram)) && addr&1 == 0 {
										if off < wlo {
											wlo = off
										}
										if off+2 > whi {
											whi = off + 2
										}
										ram[off] = byte(v >> 8)
										ram[off+1] = byte(v)
									} else if err := c.memory.Write16(addr, uint16(v)); err != nil {
										instrs, extra, iccSetAt = c.sbAbort(blk, k, instrs, extra, iccSetAt, &fb)
										fpc := spc + uint32(k)*4
										pc, npc = fpc, fpc+4
										retErr = fmt.Errorf("%w at %#08x", err, fpc)
										break loop
									}
								}
								if addr-textBase < uint32(len(fast))*4 {
									// Self-modifying store: finish the pass on
									// the already-read plan (the generic loop
									// would execute the same stale predecode),
									// then invalidate below.
									sbDead = true
								}
							}
						}
						// Commit the pass's static charges in one batch:
						// instruction count, fixed cycle charges (load/store/
						// multiply latency, interlocks) and the event counts,
						// including every statically-known icache line hit.
						instrs += uint64(len(ops))
						extra += blk.staticExtra
						fb.loads += uint64(blk.nLoads)
						fb.stores += uint64(blk.nStores)
						fb.mults += uint64(blk.nMults)
						fb.interlocks += uint64(blk.nInterlocks)
						fb.icHits += uint64(blk.icStatic)
						if blk.lastSetsCC {
							iccSetAt = instrs
						}
						spc += uint32(len(ops)) * 4
						if sbDead {
							// The pass stored into the text segment: drop every
							// compiled block and stop compiling; the rest of
							// the run executes on the generic loop.
							c.sbInvalidate()
							sbIdx, sbHeat = nil, nil
							sbDeopts++
							sbDead = false
						}
						if blk.tIdx < 0 {
							// Block ends at a non-superblockable op: exit to
							// the generic dispatch at a clean boundary,
							// arming the hazard a last-position load left.
							if blk.exitHazardRd != 0 {
								hazard = c.hazardIndex(blk.exitHazardRd)
							}
							if len(ops) == sbMaxOps && sbHeat != nil {
								// Length-capped block: its sequential
								// continuation is just as hot — heat it so the
								// region compiles as a follow-on block.
								if t := uint64(spc-textBase) >> 2; t < uint64(len(sbHeat)) && sbIdx[t] == 0 {
									sbHeat[t]++
									if sbHeat[t] == sbThresh {
										c.compileSB(uint32(t))
									}
								}
							}
							pc, npc = spc, spc+4
							continue loop
						}

						// Terminal branch at spc, sequential by construction
						// (architectural npc == spc+4); its fields were copied
						// into the plan at compile time, and the line
						// crossings of every fetch around it are static (sbf
						// bits) — only crossing fetches probe the cache, the
						// rest credit hits directly. The code mirrors the
						// generic fBicc / fused compare-and-branch cases.
						if blk.sbf&sbfT0 != 0 {
							// Empty interior: the preceding fetch is the
							// caller's, so this one compares dynamically.
							if line := spc >> icShift; line == fetchLine {
								fb.icHits++
							} else {
								if icTags != nil {
									if icTags[line&icMask] == spc>>icTagShift {
										fb.icHits++
									} else {
										icTags[line&icMask] = spc >> icTagShift
										fb.icMisses++
										extra += imissPen
									}
								} else if !c.icache.Read(spc) {
									c.stats.ICacheStall += imissPen
									extra += imissPen
								}
								fetchLine = line
							}
						} else if blk.sbf&sbfCrossT != 0 {
							line := spc >> icShift
							if icTags != nil {
								if icTags[line&icMask] == spc>>icTagShift {
									fb.icHits++
								} else {
									icTags[line&icMask] = spc >> icTagShift
									fb.icMisses++
									extra += imissPen
								}
							} else if !c.icache.Read(spc) {
								c.stats.ICacheStall += imissPen
								extra += imissPen
							}
							fetchLine = line
						} else {
							fb.icHits++
						}
						instrs++
						if blk.tInterlock {
							fb.interlocks++
							extra += c.loadInterlock
							if rec != nil {
								rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: flagInterlock})
							}
						}
						tnpc := spc + 4
						var nextPC, nextNPC uint32
						slotRuns := false
						slotCross := false
						var succPtr *int32
						if blk.tCode == fBicc {
							fb.branches++
							bfl := uint8(0) // the branch's flags, for a recording
							if iccSetAt+1 == instrs {
								if c.iccHold {
									fb.iccHolds++
									extra++
								}
								bfl = flagICC
							}
							taken := blk.tCondMask>>iccIdx&1 != 0
							switch {
							case taken && blk.tFlags&fgBAAnnul != 0:
								fb.taken++
								extra += 1 + c.decodeExtra
								if bbv != nil {
									bbv[blk.tTarget>>bbvShift&bbvMask]++
								}
								if blk.sbf&sbfCross1 != 0 {
									if !c.icache.Read(tnpc) {
										c.stats.ICacheStall += imissPen
										extra += imissPen
									}
									fetchLine = tnpc >> icShift
								} else {
									fb.icHits++
								}
								extra++
								fb.annulled++
								if rec != nil {
									rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl | flagTaken}, recEvent{num: instrs, arg: tnpc, kind: evAnnul})
									rec.key = noRun
								}
								nextPC, nextNPC = blk.tTarget, blk.tTarget+4
								succPtr = &blk.succT
							case taken:
								fb.taken++
								extra += 1 + c.decodeExtra
								if bbv != nil {
									bbv[blk.tTarget>>bbvShift&bbvMask]++
								}
								if rec != nil {
									rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl | flagTaken})
								}
								nextPC, nextNPC = tnpc, blk.tTarget
								slotRuns = true
								slotCross = blk.sbf&sbfCross1 != 0
								succPtr = &blk.succT
							case blk.tFlags&fgAnnul != 0:
								if blk.sbf&sbfCross1 != 0 {
									if !c.icache.Read(tnpc) {
										c.stats.ICacheStall += imissPen
										extra += imissPen
									}
									fetchLine = tnpc >> icShift
								} else {
									fb.icHits++
								}
								extra++
								fb.annulled++
								if rec != nil {
									if bfl != 0 {
										rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl})
									}
									rec.ev = append(rec.ev, recEvent{num: instrs, arg: tnpc, kind: evAnnul})
									rec.key = noRun
								}
								nextPC, nextNPC = tnpc+4, tnpc+8
								succPtr = &blk.succF
							default:
								if rec != nil && bfl != 0 {
									rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl})
								}
								nextPC, nextNPC = tnpc, tnpc+4
								slotRuns = true
								slotCross = blk.sbf&sbfCross1 != 0
								succPtr = &blk.succF
							}
						} else {
							// Fused compare-and-branch. ALU half at spc; the
							// entry bound guarantees instrs < target for the
							// branch half, and flow is sequential, so the
							// generic case's delay-slot/boundary demotion
							// cannot trigger here.
							tri := blk.tRI
							a, b := rf[tri>>20&riMask], blk.tImm
							if blk.tFlags&fgUseImm == 0 {
								b = rf[tri>>10&riMask]
							}
							var r uint32
							switch blk.tCode {
							case fAddCCBicc:
								r = a + b
								iccIdx = iccIndex(int32(r) < 0, r == 0, (^(a^b)&(a^r))>>31 != 0, r < a)
							case fSubCCBicc:
								r = a - b
								iccIdx = iccIndex(int32(r) < 0, r == 0, ((a^b)&(a^r))>>31 != 0, b > a)
							case fAndCCBicc:
								r = a & b
								iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
							case fOrCCBicc:
								r = a | b
								iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
							case fXorCCBicc:
								r = a ^ b
								iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
							}
							setRF(rf, tri, r)
							iccSetAt = instrs
							pc2 := tnpc
							if blk.sbf&sbfCross1 != 0 {
								if !c.icache.Read(pc2) {
									c.stats.ICacheStall += imissPen
									extra += imissPen
								}
								fetchLine = pc2 >> icShift
							} else {
								fb.icHits++
							}
							instrs++
							fb.branches++
							if c.iccHold {
								fb.iccHolds++
								extra++
							}
							bfl := flagICC // the branch's flags, for a recording
							taken := blk.tCondMask>>iccIdx&1 != 0
							npc2 := pc2 + 4
							switch {
							case taken && blk.tFlags&fgBAAnnul != 0:
								fb.taken++
								extra += 1 + c.decodeExtra
								if bbv != nil {
									bbv[blk.tTarget>>bbvShift&bbvMask]++
								}
								if blk.sbf&sbfCross2 != 0 {
									if !c.icache.Read(npc2) {
										c.stats.ICacheStall += imissPen
										extra += imissPen
									}
									fetchLine = npc2 >> icShift
								} else {
									fb.icHits++
								}
								extra++
								fb.annulled++
								if rec != nil {
									rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl | flagTaken}, recEvent{num: instrs, arg: npc2, kind: evAnnul})
									rec.key = noRun
								}
								nextPC, nextNPC = blk.tTarget, blk.tTarget+4
								succPtr = &blk.succT
							case taken:
								fb.taken++
								extra += 1 + c.decodeExtra
								if bbv != nil {
									bbv[blk.tTarget>>bbvShift&bbvMask]++
								}
								if rec != nil {
									rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl | flagTaken})
								}
								nextPC, nextNPC = npc2, blk.tTarget
								slotRuns = true
								slotCross = blk.sbf&sbfCross2 != 0
								succPtr = &blk.succT
							case blk.tFlags&fgAnnul != 0:
								if blk.sbf&sbfCross2 != 0 {
									if !c.icache.Read(npc2) {
										c.stats.ICacheStall += imissPen
										extra += imissPen
									}
									fetchLine = npc2 >> icShift
								} else {
									fb.icHits++
								}
								extra++
								fb.annulled++
								if rec != nil {
									if bfl != 0 {
										rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl})
									}
									rec.ev = append(rec.ev, recEvent{num: instrs, arg: npc2, kind: evAnnul})
									rec.key = noRun
								}
								nextPC, nextNPC = npc2+4, npc2+8
								succPtr = &blk.succF
							default:
								if rec != nil && bfl != 0 {
									rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl})
								}
								nextPC, nextNPC = npc2, npc2+4
								slotRuns = true
								slotCross = blk.sbf&sbfCross2 != 0
								succPtr = &blk.succF
							}
						}
						if slotRuns {
							if blk.tFlags&fgSlotALU == 0 {
								// The slot is not a fusable ALU op: exit and
								// let the generic loop execute it with full
								// DCTI semantics. nextPC is the slot, so the
								// successor caches don't apply.
								succPtr = nil
							} else {
								// Inlined delay slot, pre-resolved in the
								// plan, exactly as the generic loop runs it.
								if slotCross {
									sspc := nextPC
									line := sspc >> icShift
									if icTags != nil {
										if icTags[line&icMask] == sspc>>icTagShift {
											fb.icHits++
										} else {
											icTags[line&icMask] = sspc >> icTagShift
											fb.icMisses++
											extra += imissPen
										}
									} else if !c.icache.Read(sspc) {
										c.stats.ICacheStall += imissPen
										extra += imissPen
									}
									fetchLine = line
								} else {
									fb.icHits++
								}
								instrs++
								sl := blk.slot
								sa, sb := rf[sl.ri>>20&riMask], sl.imm
								if sl.flags&sbOpImm == 0 {
									sb = rf[sl.ri>>10&riMask]
								}
								var sr uint32
								cc := false
								switch sl.code {
								case fAdd:
									sr = sa + sb
								case fAddCC:
									sr = sa + sb
									iccIdx = iccIndex(int32(sr) < 0, sr == 0, (^(sa^sb)&(sa^sr))>>31 != 0, sr < sa)
									cc = true
								case fSub:
									sr = sa - sb
								case fSubCC:
									sr = sa - sb
									iccIdx = iccIndex(int32(sr) < 0, sr == 0, ((sa^sb)&(sa^sr))>>31 != 0, sb > sa)
									cc = true
								case fAnd:
									sr = sa & sb
								case fAndCC:
									sr = sa & sb
									iccIdx = iccIndex(int32(sr) < 0, sr == 0, false, false)
									cc = true
								case fOr:
									sr = sa | sb
								case fOrCC:
									sr = sa | sb
									iccIdx = iccIndex(int32(sr) < 0, sr == 0, false, false)
									cc = true
								case fXor:
									sr = sa ^ sb
								case fXorCC:
									sr = sa ^ sb
									iccIdx = iccIndex(int32(sr) < 0, sr == 0, false, false)
									cc = true
								case fAndN:
									sr = sa &^ sb
								case fOrN:
									sr = sa | ^sb
								case fXnor:
									sr = ^(sa ^ sb)
								case fSll:
									sr = sa << (sb & 31)
								case fSrl:
									sr = sa >> (sb & 31)
								case fSra:
									sr = uint32(int32(sa) >> (sb & 31))
								case fSethi:
									sr = sl.imm
								}
								setRF(rf, sl.ri, sr)
								if cc {
									iccSetAt = instrs
								}
								nextPC, nextNPC = nextNPC, nextNPC+4
							}
						}

						// Chain: when flow continues sequentially at a
						// compiled head with room below the target, stay in
						// the executor — a hot loop whose back edge lands on
						// its own head never leaves this for-loop. The
						// successor for the edge just taken is cached in the
						// block, so the steady state needs no index or heat
						// lookups; an unresolved edge heats its target until
						// it compiles (or is pinned unreachable).
						if succPtr != nil && sbIdx != nil {
							s2 := *succPtr
							if s2 == 0 {
								if t := uint64(nextPC-textBase) >> 2; t < uint64(len(sbIdx)) {
									if h := sbIdx[t]; h > 0 {
										*succPtr, s2 = h, h
									} else if h == 0 {
										sbHeat[t]++
										if sbHeat[t] == sbThresh {
											c.compileSB(uint32(t))
											if h = sbIdx[t]; h > 0 {
												*succPtr, s2 = h, h
											}
										}
									} else {
										*succPtr = -1
									}
								} else {
									*succPtr = -1
								}
							}
							if s2 > 0 {
								nblk := &c.sbBlocks[s2-1]
								if instrs+uint64(nblk.maxInstrs) <= target {
									blk, spc = nblk, nextPC
									continue chain
								}
							}
						} else if nextNPC == nextPC+4 {
							if nIdx := uint64(nextPC-textBase) >> 2; nIdx < uint64(len(sbIdx)) {
								if s2 := sbIdx[nIdx]; s2 > 0 {
									nblk := &c.sbBlocks[s2-1]
									if instrs+uint64(nblk.maxInstrs) <= target {
										blk, spc = nblk, nextPC
										continue chain
									}
								} else if s2 == 0 {
									// Sequential continuation not compiled
									// yet: heat it, so hot regions grow block
									// chains forward past their branches.
									sbHeat[nIdx]++
									if sbHeat[nIdx] == sbThresh {
										c.compileSB(uint32(nIdx))
									}
								}
							}
						}
						pc, npc = nextPC, nextNPC
						continue loop
					}
				}
			}
		}
		ri := fastRI[idx]

		// Fetch. A fetch from the line probed last is a guaranteed hit
		// with no replacement side effects; credit it without touching
		// the tag store. Direct-mapped probes are inlined: one load and
		// compare against the raw tag store, counters batched.
		if line := pc >> icShift; line == fetchLine {
			fb.icHits++
		} else {
			if icTags != nil {
				if icTags[line&icMask] == pc>>icTagShift {
					fb.icHits++
				} else {
					icTags[line&icMask] = pc >> icTagShift
					fb.icMisses++
					extra += imissPen
				}
			} else if !c.icache.Read(pc) {
				c.stats.ICacheStall += imissPen
				extra += imissPen
			}
			fetchLine = line
		}
		instrs++

		// Load-use interlock.
		if hazard != noHazard {
			if (f.flags&fgReadsRs1 != 0 && c.hazardIndex(f.rs1) == hazard) ||
				(f.flags&fgReadsRs2 != 0 && c.hazardIndex(f.rs2) == hazard) ||
				(f.flags&fgReadsRd != 0 && c.hazardIndex(f.rd) == hazard) {
				fb.interlocks++
				extra += c.loadInterlock
				if rec != nil {
					rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: flagInterlock})
				}
			}
			hazard = noHazard
		}

		nextPC, nextNPC := npc, npc+4
		slotIdx := uint64(0) // when nonzero, a branch delay slot to run inline

		switch f.code {
		case fAdd:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, rf[ri>>20&riMask]+b)
		case fAddCC:
			a, b := rf[ri>>20&riMask], f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			r := a + b
			setRF(rf, ri, r)
			iccIdx = iccIndex(int32(r) < 0, r == 0, (^(a^b)&(a^r))>>31 != 0, r < a)
			iccSetAt = instrs

		case fSub:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, rf[ri>>20&riMask]-b)
		case fSubCC:
			a, b := rf[ri>>20&riMask], f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			r := a - b
			setRF(rf, ri, r)
			iccIdx = iccIndex(int32(r) < 0, r == 0, ((a^b)&(a^r))>>31 != 0, b > a)
			iccSetAt = instrs

		case fAnd:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, rf[ri>>20&riMask]&b)
		case fAndCC:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			r := rf[ri>>20&riMask] & b
			setRF(rf, ri, r)
			iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
			iccSetAt = instrs
		case fOr:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, rf[ri>>20&riMask]|b)
		case fOrCC:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			r := rf[ri>>20&riMask] | b
			setRF(rf, ri, r)
			iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
			iccSetAt = instrs
		case fXor:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, rf[ri>>20&riMask]^b)
		case fXorCC:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			r := rf[ri>>20&riMask] ^ b
			setRF(rf, ri, r)
			iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
			iccSetAt = instrs
		case fAndN:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, rf[ri>>20&riMask]&^b)
		case fOrN:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, rf[ri>>20&riMask]|^b)
		case fXnor:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, ^(rf[ri>>20&riMask] ^ b))

		case fSll:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, rf[ri>>20&riMask]<<(b&31))
		case fSrl:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, rf[ri>>20&riMask]>>(b&31))
		case fSra:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			setRF(rf, ri, uint32(int32(rf[ri>>20&riMask])>>(b&31)))

		case fUMul, fUMulCC:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			p := uint64(rf[ri>>20&riMask]) * uint64(b)
			c.y = uint32(p >> 32)
			r := uint32(p)
			setRF(rf, ri, r)
			if f.code == fUMulCC {
				iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
				iccSetAt = instrs
			}
			fb.mults++
			extra += c.mulExtra

		case fSMul, fSMulCC:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			p := int64(int32(rf[ri>>20&riMask])) * int64(int32(b))
			c.y = uint32(uint64(p) >> 32)
			r := uint32(p)
			setRF(rf, ri, r)
			if f.code == fSMulCC {
				iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
				iccSetAt = instrs
			}
			fb.mults++
			extra += c.mulExtra

		case fUDiv:
			divisor := f.imm
			if f.flags&fgUseImm == 0 {
				divisor = rf[ri>>10&riMask]
			}
			if divisor == 0 {
				retErr = fmt.Errorf("cpu: division by zero at %#08x", pc)
				break loop
			}
			dividend := uint64(c.y)<<32 | uint64(rf[ri>>20&riMask])
			q := dividend / uint64(divisor)
			if q > 0xFFFFFFFF {
				q = 0xFFFFFFFF // SPARC overflow clamp
			}
			setRF(rf, ri, uint32(q))
			fb.divs++
			extra += c.divExtra

		case fSDiv:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			divisor := int64(int32(b))
			if divisor == 0 {
				retErr = fmt.Errorf("cpu: division by zero at %#08x", pc)
				break loop
			}
			dividend := int64(uint64(c.y)<<32 | uint64(rf[ri>>20&riMask]))
			q := dividend / divisor
			if q > 0x7FFFFFFF {
				q = 0x7FFFFFFF
			} else if q < -0x80000000 {
				q = -0x80000000
			}
			setRF(rf, ri, uint32(int32(q)))
			fb.divs++
			extra += c.divExtra

		case fRdY:
			setRF(rf, ri, c.y)
		case fWrY:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			c.y = rf[ri>>20&riMask] ^ b
		case fSethi:
			setRF(rf, ri, f.imm)

		case fLd, fLdUB, fLdSB, fLdUH, fLdSH:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			addr := rf[ri>>20&riMask] + b
			if rec != nil {
				rec.addrs = append(rec.addrs, addr)
				if addr < rec.hi && addr+4 > rec.lo {
					rec.guard(addr, fastBytes(f.code))
				}
			}
			fb.loads++
			extra++
			if addr < deviceBase {
				if line := addr >> dcShift; dcSkip && line == dcLine {
					fb.dcHits++
				} else {
					if dcDirect {
						if dcTags[line&dcMask] == addr>>dcTagShift {
							fb.dcHits++
						} else {
							dcTags[line&dcMask] = addr >> dcTagShift
							fb.dcMisses++
							extra += c.dmissPenalty
						}
					} else if !c.dcache.Read(addr) {
						c.stats.DCacheStall += c.dmissPenalty
						extra += c.dmissPenalty
					}
					dcLine = line // resident either way after a read
				}
			}
			// In-RAM aligned accesses read the backing store directly;
			// everything else (UART status, faults, misalignment) takes
			// the memory methods so the error semantics stay identical.
			var v uint32
			off := uint64(addr) - uint64(mem.RAMBase)
			switch f.code {
			case fLd:
				if off+4 <= uint64(len(ram)) && addr&3 == 0 {
					v = uint32(ram[off])<<24 | uint32(ram[off+1])<<16 |
						uint32(ram[off+2])<<8 | uint32(ram[off+3])
				} else {
					w, err := c.memory.Read32(addr)
					if err != nil {
						retErr = fmt.Errorf("%w at %#08x", err, pc)
						break loop
					}
					v = w
				}
			case fLdUB, fLdSB:
				if off < uint64(len(ram)) {
					v = uint32(ram[off])
				} else {
					by, err := c.memory.Read8(addr)
					if err != nil {
						retErr = fmt.Errorf("%w at %#08x", err, pc)
						break loop
					}
					v = uint32(by)
				}
				if f.code == fLdSB {
					v = uint32(int32(int8(v)))
				}
			case fLdUH, fLdSH:
				if off+2 <= uint64(len(ram)) && addr&1 == 0 {
					v = uint32(ram[off])<<8 | uint32(ram[off+1])
				} else {
					h, err := c.memory.Read16(addr)
					if err != nil {
						retErr = fmt.Errorf("%w at %#08x", err, pc)
						break loop
					}
					v = uint32(h)
				}
				if f.code == fLdSH {
					v = uint32(int32(int16(v)))
				}
			}
			setRF(rf, ri, v)
			if f.rd != 0 {
				hazard = c.hazardIndex(f.rd)
			}

		case fSt, fStB, fStH:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			addr := rf[ri>>20&riMask] + b
			if rec != nil {
				rec.addrs = append(rec.addrs, addr)
				if addr < rec.hi && addr+4 > rec.lo {
					rec.guard(addr, fastBytes(f.code))
				}
			}
			v := rf[ri&riMask]
			fb.stores++
			extra += 2
			if addr < deviceBase {
				// A store to the line known resident is a write hit with
				// no state change (write-through, no-allocate; the skip is
				// disabled under LRU where hits age the ways). Other
				// stores probe; a write miss does not fill, so the
				// resident anchor is unaffected either way.
				if line := addr >> dcShift; dcSkip && line == dcLine {
					fb.dwHits++
				} else if dcDirect {
					if dcTags[line&dcMask] == addr>>dcTagShift {
						fb.dwHits++
						dcLine = line // a write hit proves residency too
					} else {
						fb.dwMisses++
					}
				} else {
					c.dcache.Write(addr)
				}
				stall := c.wbuf.Store(cyclesBase + (instrs - instrsBase) + extra)
				fb.wbStall += stall
				extra += stall
			}
			off := uint64(addr) - uint64(mem.RAMBase)
			switch f.code {
			case fSt:
				if off+4 <= uint64(len(ram)) && addr&3 == 0 {
					if off < wlo {
						wlo = off
					}
					if off+4 > whi {
						whi = off + 4
					}
					ram[off] = byte(v >> 24)
					ram[off+1] = byte(v >> 16)
					ram[off+2] = byte(v >> 8)
					ram[off+3] = byte(v)
				} else if err := c.memory.Write32(addr, v); err != nil {
					retErr = fmt.Errorf("%w at %#08x", err, pc)
					break loop
				}
			case fStB:
				if off < uint64(len(ram)) {
					if off < wlo {
						wlo = off
					}
					if off+1 > whi {
						whi = off + 1
					}
					ram[off] = uint8(v)
				} else if err := c.memory.Write8(addr, uint8(v)); err != nil {
					retErr = fmt.Errorf("%w at %#08x", err, pc)
					break loop
				}
			case fStH:
				if off+2 <= uint64(len(ram)) && addr&1 == 0 {
					if off < wlo {
						wlo = off
					}
					if off+2 > whi {
						whi = off + 2
					}
					ram[off] = byte(v >> 8)
					ram[off+1] = byte(v)
				} else if err := c.memory.Write16(addr, uint16(v)); err != nil {
					retErr = fmt.Errorf("%w at %#08x", err, pc)
					break loop
				}
			}

		case fBicc:
			fb.branches++
			bfl := uint8(0) // the branch's flags, for a recording
			if iccSetAt+1 == instrs {
				if c.iccHold {
					fb.iccHolds++
					extra++
				}
				bfl = flagICC
			}
			taken := f.condMask>>iccIdx&1 != 0
			slotRuns := false
			switch {
			case taken && f.flags&fgBAAnnul != 0:
				// ba,a: delay slot annulled even though taken.
				fb.taken++
				extra += 1 + c.decodeExtra
				if rec != nil {
					rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl | flagTaken})
				}
				if bbv != nil {
					bbv[f.target>>bbvShift&bbvMask]++
				}
				if sbHeat != nil {
					if t := uint64(f.target-textBase) >> 2; t < uint64(len(sbHeat)) {
						sbHeat[t]++
						if sbHeat[t] == sbThresh {
							c.compileSB(uint32(t))
						}
					}
				}
				// Annulled slot at npc: fetched, occupies a slot, no effect.
				if line := npc >> icShift; line == fetchLine {
					fb.icHits++
				} else {
					if !c.icache.Read(npc) {
						c.stats.ICacheStall += imissPen
						extra += imissPen
					}
					fetchLine = line
				}
				extra++
				fb.annulled++
				if rec != nil {
					rec.ev = append(rec.ev, recEvent{num: instrs, arg: npc, kind: evAnnul})
					rec.key = noRun
				}
				hazard = noHazard
				nextPC, nextNPC = f.target, f.target+4
			case taken:
				fb.taken++
				extra += 1 + c.decodeExtra
				if rec != nil {
					rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl | flagTaken})
				}
				if bbv != nil {
					bbv[f.target>>bbvShift&bbvMask]++
				}
				if sbHeat != nil {
					if t := uint64(f.target-textBase) >> 2; t < uint64(len(sbHeat)) {
						sbHeat[t]++
						if sbHeat[t] == sbThresh {
							c.compileSB(uint32(t))
						}
					}
				}
				nextPC, nextNPC = npc, f.target
				slotRuns = true
			case f.flags&fgAnnul != 0:
				// Untaken with annul: skip the delay slot.
				if line := npc >> icShift; line == fetchLine {
					fb.icHits++
				} else {
					if !c.icache.Read(npc) {
						c.stats.ICacheStall += imissPen
						extra += imissPen
					}
					fetchLine = line
				}
				extra++
				fb.annulled++
				if rec != nil {
					if bfl != 0 {
						rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl})
					}
					rec.ev = append(rec.ev, recEvent{num: instrs, arg: npc, kind: evAnnul})
					rec.key = noRun
				}
				hazard = noHazard
				nextPC, nextNPC = npc+4, npc+8
			default:
				if rec != nil && bfl != 0 {
					rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl})
				}
				// Untaken without annul: the "slot" is simply the next
				// sequential instruction, equally safe to run inline.
				slotRuns = true
			}
			if slotRuns && f.flags&fgSlotALU != 0 && npc == pc+4 {
				// Inline the delay slot only in sequential context: a Bicc
				// executing as another CTI's delay slot (a DCTI couple)
				// has its architectural slot at npc, not at idx+1.
				slotIdx = idx + 1
			}

		case fCall:
			fb.calls++
			c.setReg(isa.RegO7, pc)
			extra += 1 + c.decodeExtra
			if bbv != nil {
				bbv[f.target>>bbvShift&bbvMask]++
			}
			if sbHeat != nil {
				if t := uint64(f.target-textBase) >> 2; t < uint64(len(sbHeat)) {
					sbHeat[t]++
					if sbHeat[t] == sbThresh {
						c.compileSB(uint32(t))
					}
				}
			}
			nextPC, nextNPC = npc, f.target

		case fJmpl:
			b := f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			jt := rf[ri>>20&riMask] + b
			if jt&3 != 0 {
				retErr = fmt.Errorf("cpu: jmpl to misaligned %#08x at %#08x", jt, pc)
				break loop
			}
			fb.jumps++
			setRF(rf, ri, pc)
			extra += 1 + c.decodeExtra + c.jumpExtra
			if bbv != nil {
				bbv[jt>>bbvShift&bbvMask]++
			}
			if sbHeat != nil {
				if t := uint64(jt-textBase) >> 2; t < uint64(len(sbHeat)) {
					sbHeat[t]++
					if sbHeat[t] == sbThresh {
						c.compileSB(uint32(t))
					}
				}
			}
			nextPC, nextNPC = npc, jt

		case fAddCCBicc, fSubCCBicc, fAndCCBicc, fOrCCBicc, fXorCCBicc:
			// Fused compare-and-branch. First the ALU half at pc.
			a, b := rf[ri>>20&riMask], f.imm
			if f.flags&fgUseImm == 0 {
				b = rf[ri>>10&riMask]
			}
			var r uint32
			switch f.code {
			case fAddCCBicc:
				r = a + b
				iccIdx = iccIndex(int32(r) < 0, r == 0, (^(a^b)&(a^r))>>31 != 0, r < a)
			case fSubCCBicc:
				r = a - b
				iccIdx = iccIndex(int32(r) < 0, r == 0, ((a^b)&(a^r))>>31 != 0, b > a)
			case fAndCCBicc:
				r = a & b
				iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
			case fOrCCBicc:
				r = a | b
				iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
			case fXorCCBicc:
				r = a ^ b
				iccIdx = iccIndex(int32(r) < 0, r == 0, false, false)
			}
			setRF(rf, ri, r)
			iccSetAt = instrs
			if npc != pc+4 || instrs >= target {
				// Executing as a delay slot (control continues at npc, not
				// at the branch) or stopping on a sampling boundary: run
				// the ALU half only; the follower keeps its plain decode.
				break
			}
			// Branch half at pc2 = pc+4 == npc, with npc2 = pc+8. The
			// branch reads no registers, so no interlock is possible, and
			// hadICC is true by construction.
			pc2 := npc
			if line := pc2 >> icShift; line == fetchLine {
				fb.icHits++
			} else {
				if !c.icache.Read(pc2) {
					c.stats.ICacheStall += imissPen
					extra += imissPen
				}
				fetchLine = line
			}
			instrs++
			fb.branches++
			if c.iccHold {
				fb.iccHolds++
				extra++
			}
			bfl := flagICC // the branch's flags, for a recording
			taken := f.condMask>>iccIdx&1 != 0
			npc2 := pc2 + 4
			slotRuns := false
			switch {
			case taken && f.flags&fgBAAnnul != 0:
				fb.taken++
				extra += 1 + c.decodeExtra
				if rec != nil {
					rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl | flagTaken})
				}
				if bbv != nil {
					bbv[f.target>>bbvShift&bbvMask]++
				}
				if sbHeat != nil {
					if t := uint64(f.target-textBase) >> 2; t < uint64(len(sbHeat)) {
						sbHeat[t]++
						if sbHeat[t] == sbThresh {
							c.compileSB(uint32(t))
						}
					}
				}
				if line := npc2 >> icShift; line == fetchLine {
					fb.icHits++
				} else {
					if !c.icache.Read(npc2) {
						c.stats.ICacheStall += imissPen
						extra += imissPen
					}
					fetchLine = line
				}
				extra++
				fb.annulled++
				if rec != nil {
					rec.ev = append(rec.ev, recEvent{num: instrs, arg: npc2, kind: evAnnul})
					rec.key = noRun
				}
				nextPC, nextNPC = f.target, f.target+4
			case taken:
				fb.taken++
				extra += 1 + c.decodeExtra
				if rec != nil {
					rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl | flagTaken})
				}
				if bbv != nil {
					bbv[f.target>>bbvShift&bbvMask]++
				}
				if sbHeat != nil {
					if t := uint64(f.target-textBase) >> 2; t < uint64(len(sbHeat)) {
						sbHeat[t]++
						if sbHeat[t] == sbThresh {
							c.compileSB(uint32(t))
						}
					}
				}
				nextPC, nextNPC = npc2, f.target
				slotRuns = true
			case f.flags&fgAnnul != 0:
				if line := npc2 >> icShift; line == fetchLine {
					fb.icHits++
				} else {
					if !c.icache.Read(npc2) {
						c.stats.ICacheStall += imissPen
						extra += imissPen
					}
					fetchLine = line
				}
				extra++
				fb.annulled++
				if rec != nil {
					if bfl != 0 {
						rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl})
					}
					rec.ev = append(rec.ev, recEvent{num: instrs, arg: npc2, kind: evAnnul})
					rec.key = noRun
				}
				nextPC, nextNPC = npc2+4, npc2+8
			default:
				if rec != nil && bfl != 0 {
					rec.ev = append(rec.ev, recEvent{num: instrs - 1, kind: bfl})
				}
				nextPC, nextNPC = npc2, npc2+4
				slotRuns = true
			}
			if slotRuns && f.flags&fgSlotALU != 0 && npc == pc+4 {
				slotIdx = idx + 2
			}
		}

		if slotIdx != 0 && instrs < target {
			// Execute the delay slot inline: a fusable ALU op at
			// slotIdx, read from its own predecoded entry. It runs at
			// address nextPC with the branch outcome already decided,
			// then flow advances one slot: both taken and untaken
			// outcomes collapse to (nextNPC, nextNPC+4).
			sl := &fast[slotIdx]
			sri := fastRI[slotIdx]
			spc := nextPC
			if line := spc >> icShift; line == fetchLine {
				fb.icHits++
			} else {
				if icTags != nil {
					if icTags[line&icMask] == spc>>icTagShift {
						fb.icHits++
					} else {
						icTags[line&icMask] = spc >> icTagShift
						fb.icMisses++
						extra += imissPen
					}
				} else if !c.icache.Read(spc) {
					c.stats.ICacheStall += imissPen
					extra += imissPen
				}
				fetchLine = line
			}
			instrs++
			sa, sb := rf[sri>>20&riMask], sl.imm
			if sl.flags&fgUseImm == 0 {
				sb = rf[sri>>10&riMask]
			}
			var sr uint32
			cc := false
			switch sl.code {
			case fAdd:
				sr = sa + sb
			case fAddCC:
				sr = sa + sb
				iccIdx = iccIndex(int32(sr) < 0, sr == 0, (^(sa^sb)&(sa^sr))>>31 != 0, sr < sa)
				cc = true
			case fSub:
				sr = sa - sb
			case fSubCC:
				sr = sa - sb
				iccIdx = iccIndex(int32(sr) < 0, sr == 0, ((sa^sb)&(sa^sr))>>31 != 0, sb > sa)
				cc = true
			case fAnd:
				sr = sa & sb
			case fAndCC:
				sr = sa & sb
				iccIdx = iccIndex(int32(sr) < 0, sr == 0, false, false)
				cc = true
			case fOr:
				sr = sa | sb
			case fOrCC:
				sr = sa | sb
				iccIdx = iccIndex(int32(sr) < 0, sr == 0, false, false)
				cc = true
			case fXor:
				sr = sa ^ sb
			case fXorCC:
				sr = sa ^ sb
				iccIdx = iccIndex(int32(sr) < 0, sr == 0, false, false)
				cc = true
			case fAndN:
				sr = sa &^ sb
			case fOrN:
				sr = sa | ^sb
			case fXnor:
				sr = ^(sa ^ sb)
			case fSll:
				sr = sa << (sb & 31)
			case fSrl:
				sr = sa >> (sb & 31)
			case fSra:
				sr = uint32(int32(sa) >> (sb & 31))
			case fSethi:
				sr = sl.imm
			}
			setRF(rf, sri, sr)
			if cc {
				iccSetAt = instrs
			}
			nextPC, nextNPC = nextNPC, nextNPC+4
		}

		if n := uint64(f.condMask); f.code <= fRunnableMax && n > 1 && npc == pc+4 && instrs+n-1 <= target {
			// Straight-line run: retire the remaining n-1 ops of the run
			// in place. Within a run, an op on the same icache line as
			// its predecessor is a guaranteed hit (the predecessor just
			// fetched that line), so only the predecoded line-start ops
			// probe. Runs hold only ALU ops and hazard-safe loads (the
			// successor of an in-run load never reads its register, by
			// construction), so there is no interlock bookkeeping per op:
			// a pending hazard from the dispatched op expires on the
			// first consumed op, and only a load in last position arms a
			// new one.
			hazard = noHazard
			// Fetch accounting is hoisted to run granularity: the run
			// spans lines firstLine..lastLine, the entry op already
			// probed firstLine, each later line is probed once here, and
			// every other fetch is a guaranteed same-line hit. Probes
			// commute with the ALU/load work (disjoint state), so doing
			// them up front is exact for completed runs; only a run
			// aborted by a memory fault (which kills the whole
			// simulation) observes probes ahead of the faulting op.
			firstLine := pc >> icShift
			lastLine := (pc + uint32(n-1)*4) >> icShift
			fb.icHits += n - 1 - uint64(lastLine-firstLine)
			for line := firstLine + 1; line <= lastLine; line++ {
				if icTags != nil {
					if icTags[line&icMask] == line>>(icTagShift-icShift) {
						fb.icHits++
					} else {
						icTags[line&icMask] = line >> (icTagShift - icShift)
						fb.icMisses++
						extra += imissPen
					}
				} else if !c.icache.Read(line << icShift) {
					c.stats.ICacheStall += imissPen
					extra += imissPen
				}
			}
			fetchLine = lastLine
			instrsRun := instrs
			instrs += n - 1
			for k := uint64(1); k < n; k++ {
				sl := &fast[idx+k]
				sri := fastRI[idx+k]
				sa, sb := rf[sri>>20&riMask], sl.imm
				if sl.flags&fgUseImm == 0 {
					sb = rf[sri>>10&riMask]
				}
				var sr uint32
				switch sl.code {
				case fAdd:
					sr = sa + sb
				case fAddCC:
					sr = sa + sb
					iccIdx = iccIndex(int32(sr) < 0, sr == 0, (^(sa^sb)&(sa^sr))>>31 != 0, sr < sa)
					iccSetAt = instrsRun + k
				case fSub:
					sr = sa - sb
				case fSubCC:
					sr = sa - sb
					iccIdx = iccIndex(int32(sr) < 0, sr == 0, ((sa^sb)&(sa^sr))>>31 != 0, sb > sa)
					iccSetAt = instrsRun + k
				case fAnd:
					sr = sa & sb
				case fAndCC:
					sr = sa & sb
					iccIdx = iccIndex(int32(sr) < 0, sr == 0, false, false)
					iccSetAt = instrsRun + k
				case fOr:
					sr = sa | sb
				case fOrCC:
					sr = sa | sb
					iccIdx = iccIndex(int32(sr) < 0, sr == 0, false, false)
					iccSetAt = instrsRun + k
				case fXor:
					sr = sa ^ sb
				case fXorCC:
					sr = sa ^ sb
					iccIdx = iccIndex(int32(sr) < 0, sr == 0, false, false)
					iccSetAt = instrsRun + k
				case fAndN:
					sr = sa &^ sb
				case fOrN:
					sr = sa | ^sb
				case fXnor:
					sr = ^(sa ^ sb)
				case fSll:
					sr = sa << (sb & 31)
				case fSrl:
					sr = sa >> (sb & 31)
				case fSra:
					sr = uint32(int32(sa) >> (sb & 31))
				case fSethi:
					sr = sl.imm
				case fLd, fLdUB, fLdSB, fLdUH, fLdSH:
					addr := sa + sb
					if rec != nil {
						rec.addrs = append(rec.addrs, addr)
						if addr < rec.hi && addr+4 > rec.lo {
							rec.guard(addr, fastBytes(sl.code))
						}
					}
					fb.loads++
					extra++
					if addr < deviceBase {
						if line := addr >> dcShift; dcSkip && line == dcLine {
							fb.dcHits++
						} else {
							if dcDirect {
								if dcTags[line&dcMask] == addr>>dcTagShift {
									fb.dcHits++
								} else {
									dcTags[line&dcMask] = addr >> dcTagShift
									fb.dcMisses++
									extra += c.dmissPenalty
								}
							} else if !c.dcache.Read(addr) {
								c.stats.DCacheStall += c.dmissPenalty
								extra += c.dmissPenalty
							}
							dcLine = line
						}
					}
					off := uint64(addr) - uint64(mem.RAMBase)
					switch sl.code {
					case fLd:
						if off+4 <= uint64(len(ram)) && addr&3 == 0 {
							sr = uint32(ram[off])<<24 | uint32(ram[off+1])<<16 |
								uint32(ram[off+2])<<8 | uint32(ram[off+3])
						} else {
							w, err := c.memory.Read32(addr)
							if err != nil {
								instrs = instrsRun + k
								pc, npc = pc+uint32(k)*4, pc+uint32(k)*4+4
								retErr = fmt.Errorf("%w at %#08x", err, pc)
								break loop
							}
							sr = w
						}
					case fLdUB, fLdSB:
						if off < uint64(len(ram)) {
							sr = uint32(ram[off])
						} else {
							by, err := c.memory.Read8(addr)
							if err != nil {
								instrs = instrsRun + k
								pc, npc = pc+uint32(k)*4, pc+uint32(k)*4+4
								retErr = fmt.Errorf("%w at %#08x", err, pc)
								break loop
							}
							sr = uint32(by)
						}
						if sl.code == fLdSB {
							sr = uint32(int32(int8(sr)))
						}
					case fLdUH, fLdSH:
						if off+2 <= uint64(len(ram)) && addr&1 == 0 {
							sr = uint32(ram[off])<<8 | uint32(ram[off+1])
						} else {
							h, err := c.memory.Read16(addr)
							if err != nil {
								instrs = instrsRun + k
								pc, npc = pc+uint32(k)*4, pc+uint32(k)*4+4
								retErr = fmt.Errorf("%w at %#08x", err, pc)
								break loop
							}
							sr = uint32(h)
						}
						if sl.code == fLdSH {
							sr = uint32(int32(int16(sr)))
						}
					}
					if k == n-1 && sl.rd != 0 {
						// Only a last-position load leaves a live hazard
						// for the next dispatched instruction.
						hazard = c.hazardIndex(sl.rd)
					}
				}
				setRF(rf, sri, sr)
			}
			lastPC := pc + uint32(n-1)*4
			nextPC, nextNPC = lastPC+4, lastPC+8
		}

		pc, npc = nextPC, nextNPC
	}

	// Single exit: write the batched hot-loop state back into the core so
	// the reference path (Step), error reporting and the profile observe
	// it, whatever path led here.
	c.pc, c.npc = pc, npc
	c.stats.Cycles = cyclesBase + (instrs - instrsBase) + extra
	c.stats.Instructions = instrs
	c.loadHazardReg = hazard
	c.iccJustSet = iccSetAt == instrs
	c.icc = unpackICC(iccIdx)
	if whi > wlo {
		c.memory.Widen(int(wlo), int(whi))
	}
	fb.flush(c)
	c.sbStats.Hits += sbHits
	c.sbStats.Deopts += sbDeopts
	return stepNext, retErr
}

// iccIndex packs four condition-code bits into the 4-bit table index used
// against fastInstr.condMask. The four independent conditional assignments
// compile to flag materialisations, not branches.
func iccIndex(n, z, v, cbit bool) uint8 {
	var bn, bz, bv, bc uint8
	if n {
		bn = 8
	}
	if z {
		bz = 4
	}
	if v {
		bv = 2
	}
	if cbit {
		bc = 1
	}
	return bn | bz | bv | bc
}
