package cpu

// Superblock specialization (DESIGN.md §17).
//
// The fast loop (fast.go) still pays a per-dispatch tax for generality:
// the out-of-text check, the fallback check, the three-way dynamic
// load-use hazard probe, the per-instruction fetch-line check, the
// stat/cycle bookkeeping and the pc/npc updates run for every dispatched
// instruction even though the hot paths of the benchmark programs
// execute the same few basic blocks millions of times. Superblocks
// remove that tax for blocks proven hot at runtime:
//
//   - Discovery: every taken control transfer bumps a heat counter at
//     its target (branches, calls and register jumps — the same sites
//     that feed the block-signature profiler), and a block whose
//     sequential successor is not yet compiled bumps the successor's
//     counter, so hot regions grow chains forward. When a target's heat
//     crosses the compile threshold, the straight-line region starting
//     there is "compiled" into an sbBlock.
//   - A compiled block is a plan, not translated code: the interior ops
//     re-encoded as self-contained sbOp records (pre-copied immediate,
//     dispatch code and flags — no fastInstr load at run time), plus a
//     terminal descriptor when the block ends in a conditional branch
//     (plain or fused compare-and-branch). Everything statically
//     knowable is precomputed per block: the load-use interlock charges
//     (a block has no internal control flow, so whether op i reads the
//     register op i-1 loaded is a compile-time fact), the instruction
//     and event counts, the summed fixed cycle charges, and which ops
//     sit on instruction-cache line boundaries (block addresses are
//     static, so all interior fetches except the boundary crossings are
//     guaranteed same-line hits).
//   - Execution happens inside runFastInner on the loop's own locals:
//     one dispatch enters the block, a tight plan-driven loop retires
//     the interior ops paying only the dynamic costs (boundary cache
//     probes, data-cache probes, write-buffer timing), the batched
//     static charges are committed once per pass, the terminal branch
//     resolves with the existing exact branch semantics, and when the
//     successor block is compiled too, control chains straight into it
//     without returning to the generic dispatcher — a hot loop iterates
//     entirely inside the superblock executor.
//   - Deopt: anything the plan cannot represent exits back to the
//     generic loop at a clean instruction boundary. A store into the
//     text segment invalidates every compiled block at the end of the
//     current pass and disables further compilation for the core
//     (self-modifying code runs generically; the predecoded text is
//     shared by both engines, so the in-flight pass stays equivalent).
//
// Parity contract: compilation is timing-transparent. Executing via a
// superblock charges exactly the cycles, stats and cache events the
// generic loop would charge, with the same externally observable order —
// enforced by the engine-equivalence and differential fuzz suites.
// Whether (and when) a block compiles may therefore differ between runs
// without affecting any reported result; only wall-clock speed changes.

// DefaultSuperblockThreshold is the taken-branch heat at which a target
// block is compiled. Hot loops cross it within their first few dozen
// iterations; code executed a handful of times never compiles.
const DefaultSuperblockThreshold = 32

// sbMaxOps caps a block's interior length. Blocks end at control
// transfers long before this in practice; the cap bounds the worst-case
// instruction overshoot a sampling boundary must allow for.
const sbMaxOps = 64

// sbOp flag bits.
const (
	// sbOpImm selects the pre-copied immediate as the second operand.
	sbOpImm uint8 = 1 << 0
	// sbOpInterlock marks an op that statically incurs the load-use
	// interlock (its predecessor in the block loads a register it
	// reads). The charge is folded into the block's static totals; the
	// flag remains for the fault-path reconstruction walk.
	sbOpInterlock uint8 = 1 << 1
	// sbOpProbe marks an op whose fetch needs the dynamic cache check:
	// the block head (the previous fetch is unknown) and every op that
	// starts a new icache line. All other interior fetches are
	// statically guaranteed same-line hits and are credited in bulk.
	sbOpProbe uint8 = 1 << 2
)

// sbBlock.sbf bits: static fetch-line facts around the terminal. "t" is
// the terminal's address.
const (
	// sbfT0: the block has no interior ops, so the fetch preceding the
	// terminal is the caller's — the terminal fetch needs the fully
	// dynamic line compare.
	sbfT0 uint8 = 1 << 0
	// sbfCrossT: the terminal fetch (at t) crosses a line from the last
	// interior op (t-4). Meaningful only when sbfT0 is clear.
	sbfCrossT uint8 = 1 << 1
	// sbfCross1: a fetch at t+4 (fused branch half, or the plain
	// terminal's delay/annulled slot) crosses a line from t.
	sbfCross1 uint8 = 1 << 2
	// sbfCross2: a fetch at t+8 (the fused terminal's delay/annulled
	// slot) crosses a line from t+4.
	sbfCross2 uint8 = 1 << 3
)

// sbOp is one pre-resolved interior instruction of a compiled block.
// Even the packed register-file indices are resolved in (ri): they are
// window-dependent, so patchFastRI re-resolves every compiled plan when
// SAVE/RESTORE moves the window pointer — which can only happen at
// fallback ops outside any block.
type sbOp struct {
	ri     uint32 // packed register-file indices for the current window
	imm    uint32 // pre-copied immediate operand
	prefix uint32 // static cycle charges of ops[0..this] inclusive (write-buffer timing)
	code   uint8  // dispatch code (copied from fastInstr)
	flags  uint8
	_      [2]uint8
}

// sbBlock is one compiled superblock.
type sbBlock struct {
	// ops are the interior instructions in order. The terminal CTI, when
	// present, is not in ops.
	ops []sbOp
	// head is the text index of ops[0], anchoring ri re-resolution on
	// window rotation.
	head uint32
	// tIdx is the fast-array index of the terminal branch (fBicc or a
	// fused compare-and-branch), or -1 when the block ends at a
	// non-superblockable op instead.
	tIdx int32
	// Terminal descriptor, copied out of the predecoded instruction at
	// compile time so the executor never touches fast/fastRI for it
	// (tRI is re-resolved on window rotation like the interior ops).
	tRI       uint32
	tImm      uint32
	tTarget   uint32
	tCondMask uint16
	tCode     uint8
	tFlags    uint8
	// sbf holds the static fetch-line facts around the terminal (sbf*
	// bits): block addresses are fixed, so whether each of the terminal,
	// branch-half, annulled and delay-slot fetches crosses an icache
	// line is known at compile time.
	sbf uint8
	// slot is the pre-resolved inlined delay slot (valid when
	// tFlags&fgSlotALU is set).
	slot sbOp
	// succT/succF cache the compiled successor for the branch-taken and
	// sequential fall-through edges: 0 unresolved, -1 pinned "never"
	// (successor head rejected or out of text), else a 1-based handle
	// into sbBlocks. Sound because the compiled set only grows until a
	// wholesale invalidation drops every block (and the caches in them).
	succT int32
	succF int32
	// maxInstrs is the worst-case retired-instruction count of one pass
	// through the block (interior + branch halves + inlined delay slot);
	// the executor only enters when this many instructions still fit
	// below the run's stop target, so boundaries stay exact.
	maxInstrs uint32
	// Static per-pass totals, committed in one batch after the interior
	// loop: event counts for the profile batch and the summed fixed
	// cycle charges (loads +1, stores +2, multiply latency, load-use
	// interlocks).
	nLoads      uint32
	nStores     uint32
	nMults      uint32
	nInterlocks uint32
	ilk         uint64 // bit k set: ops[k] incurs the interlock (for recording)
	icStatic    uint32 // interior fetches that are statically same-line hits
	staticExtra uint64
	// lastSetsCC records that the final interior op sets the condition
	// codes: the batch commit then restores iccSetAt exactness (the
	// terminal's ICC-hold check and any post-exit consumer see the same
	// value the generic loop would produce). Earlier interior setters
	// need no bookkeeping: a hold check can only directly follow them
	// inside the block, where there is no branch.
	lastSetsCC bool
	// tInterlock statically charges the load-use interlock at the
	// terminal (a fused compare reading the register the last interior
	// op loaded).
	tInterlock bool
	// exitHazardRd, when nonzero, is the rd of a last-position load in a
	// terminal-less block: the generic loop's hazard scoreboard must be
	// armed on exit exactly as if the load had been dispatched there.
	exitHazardRd uint8
}

// SuperblockStats counts superblock activity on a core. The counters are
// cumulative over the core's lifetime (they survive Reset, like the
// compiled blocks themselves) and are diagnostics only — they never feed
// the profile.
type SuperblockStats struct {
	// Compiled counts blocks compiled.
	Compiled uint64
	// Hits counts block executions (chained blocks count individually).
	Hits uint64
	// Deopts counts declined or abandoned block entries: a compiled head
	// reached in a delay-slot context, or a self-modifying store that
	// invalidated the compiled set.
	Deopts uint64
}

// EnableSuperblocks turns on superblock specialization with the given
// compile threshold (taken-branch heat); threshold <= 0 disables it and
// discards any compiled state. Must be called after LoadText. Compiled
// blocks and heat survive Reset, so pooled engines keep their compiled
// set across runs — sound because compilation is timing-transparent.
func (c *Core) EnableSuperblocks(threshold int) {
	if threshold <= 0 || len(c.fast) == 0 {
		c.sbHeat, c.sbIndex, c.sbBlocks = nil, nil, nil
		c.sbThreshold = 0
		return
	}
	c.sbThreshold = uint32(threshold)
	if len(c.sbHeat) != len(c.fast) {
		c.sbHeat = make([]uint32, len(c.fast))
		c.sbIndex = make([]int32, len(c.fast))
		c.sbBlocks = nil
	}
}

// SuperblocksEnabled reports whether superblock specialization is on.
func (c *Core) SuperblocksEnabled() bool { return c.sbHeat != nil }

// SuperblockStats returns the cumulative superblock counters.
func (c *Core) SuperblockStats() SuperblockStats { return c.sbStats }

// sbInvalidate drops every compiled block and disables discovery — the
// self-modifying-store deopt. The program keeps running on the generic
// fast loop (whose semantics never depended on the compiled set).
func (c *Core) sbInvalidate() {
	c.sbHeat, c.sbIndex, c.sbBlocks = nil, nil, nil
	c.sbThreshold = 0
}

// sbReads reports whether instruction f hazard-reads architectural
// register r, mirroring the generic loop's dynamic check. Within one
// register window the arch-number comparison and the scoreboard-index
// comparison agree exactly (the hazard view is injective per window), so
// the static form is equivalent — and stays valid across window
// rotations, which can only happen at fallback ops outside any block.
func sbReads(f *fastInstr, r uint8) bool {
	return (f.flags&fgReadsRs1 != 0 && f.rs1 == r) ||
		(f.flags&fgReadsRs2 != 0 && f.rs2 == r) ||
		(f.flags&fgReadsRd != 0 && f.rd == r)
}

// sbCompilable reports whether a dispatch code may sit in a block
// interior: simple ALU, loads, multiplies and stores. Divides (whose
// zero-divisor trap would need mid-block unwinding of the batched
// charges for a *architecturally reachable* fault), Y-register moves,
// CTIs and fallbacks end the walk.
func sbCompilable(code uint8) bool {
	return (code >= fAdd && code <= fRunnableMax) ||
		(code >= fUMul && code <= fSMulCC) ||
		(code >= fSt && code <= fStH)
}

// sbSetsCC reports whether an interior dispatch code writes the
// condition codes.
func sbSetsCC(code uint8) bool {
	switch code {
	case fAddCC, fSubCC, fAndCC, fOrCC, fXorCC, fUMulCC, fSMulCC:
		return true
	}
	return false
}

// compileSB compiles the straight-line region starting at headIdx. Called
// when the head's heat crosses the threshold; idempotent per head.
func (c *Core) compileSB(headIdx uint32) {
	if c.sbIndex == nil || int(headIdx) >= len(c.sbIndex) || c.sbIndex[headIdx] != 0 {
		return
	}
	var (
		blk        sbBlock
		lastLoadRd uint8 // rd of the previous op when it was a load, else 0
		prevLine   = (c.textBase + headIdx*4) >> c.icLineShift
	)
	blk.tIdx = -1
	blk.head = headIdx
	i := headIdx
	for int(i) < len(c.fast) && len(blk.ops) < sbMaxOps {
		f := &c.fast[i]
		code := f.code
		if code == fBicc || (code >= fAddCCBicc && code <= fXorCCBicc) {
			blk.tIdx = int32(i)
			blk.tInterlock = lastLoadRd != 0 && sbReads(f, lastLoadRd)
			break
		}
		if !sbCompilable(code) {
			break
		}
		op := sbOp{ri: c.fastRI[i], imm: f.imm, code: code}
		if f.flags&fgUseImm != 0 {
			op.flags |= sbOpImm
		}
		if len(blk.ops) == 0 {
			op.flags |= sbOpProbe
		} else if line := (c.textBase + i*4) >> c.icLineShift; line != prevLine {
			op.flags |= sbOpProbe
			prevLine = line
		} else {
			blk.icStatic++
		}
		if lastLoadRd != 0 && sbReads(f, lastLoadRd) {
			op.flags |= sbOpInterlock
			blk.nInterlocks++
			blk.ilk |= 1 << len(blk.ops)
			blk.staticExtra += c.loadInterlock
		}
		lastLoadRd = 0
		switch {
		case code >= fLd && code <= fLdSH:
			blk.nLoads++
			blk.staticExtra++
			if f.rd != 0 {
				lastLoadRd = f.rd
			}
		case code >= fSt && code <= fStH:
			blk.nStores++
			blk.staticExtra += 2
		case code >= fUMul && code <= fSMulCC:
			blk.nMults++
			blk.staticExtra += c.mulExtra
		}
		op.prefix = uint32(blk.staticExtra)
		blk.lastSetsCC = sbSetsCC(code)
		blk.ops = append(blk.ops, op)
		i++
	}
	if blk.tIdx < 0 && len(blk.ops) < 2 {
		// Nothing worth specializing (a lone op, or a head sitting right
		// on a call/jump/fallback). Mark rejected so the walk never
		// re-runs for this head.
		c.sbIndex[headIdx] = -1
		return
	}
	blk.maxInstrs = uint32(len(blk.ops))
	if blk.tIdx >= 0 {
		tf := &c.fast[blk.tIdx]
		if tf.code == fBicc {
			blk.maxInstrs += 2 // branch + possibly inlined delay slot
		} else {
			blk.maxInstrs += 3 // fused ALU half + branch half + possibly inlined slot
		}
		blk.tCode, blk.tFlags, blk.tCondMask = tf.code, tf.flags, tf.condMask
		blk.tImm, blk.tTarget = tf.imm, tf.target
		blk.tRI = c.fastRI[blk.tIdx]
		tAddr := c.textBase + uint32(blk.tIdx)*4
		sh := c.icLineShift
		if len(blk.ops) == 0 {
			blk.sbf |= sbfT0
		} else if tAddr>>sh != (tAddr-4)>>sh {
			blk.sbf |= sbfCrossT
		}
		if (tAddr+4)>>sh != tAddr>>sh {
			blk.sbf |= sbfCross1
		}
		if (tAddr+8)>>sh != (tAddr+4)>>sh {
			blk.sbf |= sbfCross2
		}
		if tf.flags&fgSlotALU != 0 {
			si := blk.tIdx + 1
			if tf.code != fBicc {
				si = blk.tIdx + 2
			}
			sf := &c.fast[si]
			blk.slot = sbOp{ri: c.fastRI[si], imm: sf.imm, code: sf.code}
			if sf.flags&fgUseImm != 0 {
				blk.slot.flags |= sbOpImm
			}
		}
	}
	if blk.tIdx < 0 && lastLoadRd != 0 {
		blk.exitHazardRd = lastLoadRd
	}
	c.sbBlocks = append(c.sbBlocks, blk)
	c.sbIndex[headIdx] = int32(len(c.sbBlocks))
	c.sbStats.Compiled++
}

// sbPartial reconstructs the batched static charges of blk.ops[0..k]
// (inclusive) for the rare mid-block abort paths (a load/store fault):
// the executor defers these to a single end-of-pass commit, so an abort
// replays the walk to leave instruction, event and cycle counters
// exactly where the generic loop would have them at the faulting op.
// lastCC is the op offset of the last condition-code setter in the
// prefix, or -1.
func (c *Core) sbPartial(blk *sbBlock, k int) (instr, loads, stores, mults, interlocks, icHits, extra uint64, lastCC int) {
	instr = uint64(k + 1)
	lastCC = -1
	for j := 0; j <= k; j++ {
		op := &blk.ops[j]
		if op.flags&sbOpInterlock != 0 {
			interlocks++
			extra += c.loadInterlock
		}
		if j > 0 && op.flags&sbOpProbe == 0 {
			icHits++
		}
		switch {
		case op.code >= fLd && op.code <= fLdSH:
			loads++
			extra++
		case op.code >= fSt && op.code <= fStH:
			stores++
			extra += 2
		case op.code >= fUMul && op.code <= fSMulCC:
			mults++
			extra += c.mulExtra
		}
		if sbSetsCC(op.code) {
			lastCC = j
		}
	}
	return
}

// sbAbort commits the deferred batched charges of blk.ops[0..k] when a
// mid-block fault exits the run: the executor's accumulators catch up to
// exactly where the generic loop would be at the faulting op. Returns
// the updated (instrs, extra, iccSetAt).
func (c *Core) sbAbort(blk *sbBlock, k int, instrs, extra, iccSetAt uint64, fb *fastBatch) (uint64, uint64, uint64) {
	li, ll, ls, lm, lk, lh, lx, lcc := c.sbPartial(blk, k)
	fb.loads += ll
	fb.stores += ls
	fb.mults += lm
	fb.interlocks += lk
	fb.icHits += lh
	if lcc >= 0 {
		iccSetAt = instrs + uint64(lcc) + 1
	}
	return instrs + li, extra + lx, iccSetAt
}
