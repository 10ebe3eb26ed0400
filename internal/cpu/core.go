// Package cpu implements the LEON2-like integer unit: a functional SPARC V8
// subset interpreter with a cycle-accurate-style timing model whose
// sensitivities follow the reconfigurable parameters of the paper's
// Figure 1 (caches, ICC hold, fast jump/decode, load delay, register
// windows, multiplier and divider options).
//
// The timing semantics are documented in DESIGN.md §6. Every cycle the
// model charges is attributed to a profiler category, and the profile
// balances exactly (profiler.Stats.ConsistencyError). A recording core
// (StartRecording) logs a Trace of its run, from which Trace.Time derives
// the exact profile of the same program on any other configuration
// (DESIGN.md §22).
package cpu

import (
	"fmt"
	"io"

	"liquidarch/internal/cache"
	"liquidarch/internal/config"
	"liquidarch/internal/isa"
	"liquidarch/internal/mem"
	"liquidarch/internal/profiler"
)

// Core is one LEON2-like processor instance bound to a memory.
type Core struct {
	cfg    config.Config
	memory *mem.Memory
	icache *cache.Cache
	dcache *cache.Cache
	wbuf   *mem.WriteBuffer
	timing mem.Timing

	// Architectural state. The register file is one flat slice: the 8
	// globals at [0:8], the nwindows*16 circular windowed registers at
	// [8:8+nwin], and a write sink for %g0 in the final slot. The view
	// tables map an architectural register number to its regfile index
	// for the current window; they are rebuilt only when cwp changes
	// (SAVE/RESTORE/Reset), which makes every register access in the hot
	// loop a branch-free double index. Reads of %g0 map to regfile[0],
	// which is never written because writes to %g0 map to the sink.
	// regfile is a fixed 1024-slot array so the fast path's 10-bit
	// masked indices are provably in range (no bounds checks); only the
	// first 8+nwin+1 slots are used.
	regfile [1024]uint32
	viewR   [32]int32 // architectural reg -> regfile index, reads
	viewW   [32]int32 // same for writes (%g0 diverts to the sink)
	viewHz  [32]int32 // hazard scoreboard index (globals negative)
	nwin    int       // windowed register count, RegWindows*16
	fastCwp int       // window pointer fastRI is resolved for
	cwp     int
	resid   int // live consecutive windows, 1..nwindows-1
	y       uint32
	icc     isa.ICC
	pc, npc uint32

	// Predecoded text segment. text is the architectural decode used by
	// the reference Step path; fast is the flattened fast-path form with
	// pre-extended immediates, absolute CTI targets and per-op dispatch
	// flags (see fast.go).
	text     []isa.Instr
	fast     []fastInstr
	fastRI   []uint32 // per-instruction packed register-file indices (patchFastRI)
	textBase uint32

	// Hazard bookkeeping.
	loadHazardReg int  // physical register index of a just-loaded value, -1 if none
	iccJustSet    bool // previous instruction set the condition codes

	// Precomputed latencies.
	mulExtra      uint64
	divExtra      uint64
	imissPenalty  uint64
	dmissPenalty  uint64
	jumpExtra     uint64 // extra cycles for JMPL without fast jump
	decodeExtra   uint64 // extra cycles per taken CTI without fast decode
	loadInterlock uint64
	iccHold       bool   // cfg.IU.ICCHold, hoisted for the fast loop
	icLineShift   uint32 // log2 of the icache line bytes, for fetch batching
	dcLineShift   uint32 // log2 of the dcache line bytes
	dcLineSkip    bool   // known-resident-line probe skip is sound (non-LRU)

	stats  profiler.Stats
	halted bool
	exit   uint32

	// Block-signature vector (interval profiling support). When non-nil,
	// every taken control transfer increments the bucket its target
	// address falls in — a coarse basic-block vector in the SimPoint
	// sense, cheap enough to leave on for a whole run: one predictable
	// branch per taken CTI when disabled, one array increment when
	// enabled. len(bbv) is a power of two; bbvShift sets the bucket
	// granularity in address bits.
	bbv      []uint32
	bbvShift uint32

	// Superblock specialization (superblock.go). sbHeat counts taken
	// branches per target text index; when an entry crosses sbThreshold
	// the region is compiled into sbBlocks and sbIndex maps its head to
	// the block (1-based handle; -1 marks a rejected head). All nil/zero
	// when disabled. The compiled set survives Reset: compilation is
	// timing-transparent, so reuse across runs cannot change results.
	sbHeat      []uint32
	sbIndex     []int32
	sbBlocks    []sbBlock
	sbThreshold uint32
	sbStats     SuperblockStats

	traceW     io.Writer
	traceLimit uint64

	// rec, when non-nil, records every run step into a Trace (trace.go).
	// recCap sizes the next recording's streams: a pooled core records
	// the same program again, so the last recording's lengths fit.
	rec    *recorder
	recCap struct{ seq, addrs int }
}

// Latency tables for the multiplier and divider options (cycles per
// operation, including the issue cycle).
var mulLatency = map[config.MultiplierOption]uint64{
	config.MulNone:      44, // software emulation, microcoded
	config.MulIterative: 35,
	config.Mul16x16:     4,
	config.Mul16x16Pipe: 2,
	config.Mul32x8:      4,
	config.Mul32x16:     2,
	config.Mul32x32:     1,
}

var divLatency = map[config.DividerOption]uint64{
	config.DivNone:   120, // software emulation, microcoded
	config.DivRadix2: 35,
}

// Window trap cost model: fixed overhead plus 16 word transfers that go
// through the data cache / write buffer.
const windowTrapOverhead = 8

// New builds a core for the given configuration. The configuration must
// validate.
func New(cfg config.Config, memory *mem.Memory) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return nil, fmt.Errorf("cpu: icache: %w", err)
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		return nil, fmt.Errorf("cpu: dcache: %w", err)
	}
	timing := mem.DefaultTiming()
	l := latenciesOf(cfg)
	c := &Core{
		cfg:           cfg,
		memory:        memory,
		icache:        ic,
		dcache:        dc,
		wbuf:          mem.NewWriteBuffer(timing),
		timing:        timing,
		nwin:          cfg.IU.RegWindows * 16,
		resid:         1,
		loadHazardReg: noHazard,
		mulExtra:      l.mulExtra,
		divExtra:      l.divExtra,
		imissPenalty:  l.imiss,
		dmissPenalty:  l.dmiss,
		jumpExtra:     l.jumpExtra,
		decodeExtra:   l.decodeExtra,
		loadInterlock: l.loadDelay,
		iccHold:       cfg.IU.ICCHold,
		icLineShift:   ic.LineShift(),
		dcLineShift:   dc.LineShift(),
		// Skipping a probe of the line probed last is only sound when a
		// hit has no replacement side effects: under LRU a hit re-ages
		// the way, so interleaved writes to the set could change later
		// victim choices. 1-way caches have no replacement state at all.
		dcLineSkip: cfg.DCache.Sets == 1 || cfg.DCache.Replacement != config.LRU,
	}
	c.rebuildViews()
	return c, nil
}

// Config returns the configuration the core was built with.
func (c *Core) Config() config.Config { return c.cfg }

// Memory returns the attached memory.
func (c *Core) Memory() *mem.Memory { return c.memory }

// Stats returns the profile accumulated so far.
func (c *Core) Stats() profiler.Stats { return c.stats }

// ICacheStats and DCacheStats expose the cache event counters.
func (c *Core) ICacheStats() cache.Stats { return c.icache.Stats() }
func (c *Core) DCacheStats() cache.Stats { return c.dcache.Stats() }

// Halted reports whether the program has executed the halt trap.
func (c *Core) Halted() bool { return c.halted }

// ExitCode returns %o0 at the halt trap.
func (c *Core) ExitCode() uint32 { return c.exit }

// PC returns the current program counter.
func (c *Core) PC() uint32 { return c.pc }

// LoadText predecodes the text segment (already resident in memory) so
// execution can index instructions directly. Programs are not
// self-modifying; stores into the text range do not re-decode.
//
// Each word is decoded twice: into the architectural isa.Instr form used
// by the reference Step path, and into the flattened fastInstr form
// (pre-extended immediates, absolute branch targets, hazard flags) used
// by the trace-free runFast loop.
func (c *Core) LoadText(base uint32, words int) error {
	if base%4 != 0 {
		return fmt.Errorf("cpu: text base %#x not word aligned", base)
	}
	text := make([]isa.Instr, words)
	fast := make([]fastInstr, words)
	for i := 0; i < words; i++ {
		w, err := c.memory.Read32(base + uint32(i)*4)
		if err != nil {
			return fmt.Errorf("cpu: reading text word %d: %w", i, err)
		}
		in, err := isa.Decode(w)
		if err != nil {
			// Tolerate undecodable words (e.g. literal pools): they only
			// fault if control flow reaches them.
			in = isa.Instr{Op: isa.OpInvalid}
		}
		text[i] = in
		fast[i] = predecode(in, base+uint32(i)*4)
	}
	fusePairs(fast)
	c.text = text
	c.fast = fast
	c.textBase = base
	c.fastRI = make([]uint32, words)
	c.patchFastRI()
	if c.sbThreshold > 0 {
		// New text invalidates any compiled superblocks; re-arm discovery
		// for the new region.
		c.sbHeat = nil
		c.EnableSuperblocks(int(c.sbThreshold))
	}
	return nil
}

// Reset rewinds architectural state and the profile, sets the entry point,
// and initialises the stack pointer to the top of RAM.
func (c *Core) Reset(entry uint32) {
	for i := 0; i <= 8+c.nwin; i++ {
		c.regfile[i] = 0
	}
	c.cwp = 0
	c.resid = 1
	c.rebuildViews()
	if c.fastRI != nil && c.fastCwp != 0 {
		c.patchFastRI()
	}
	c.y = 0
	c.icc = isa.ICC{}
	c.pc = entry
	c.npc = entry + 4
	c.loadHazardReg = noHazard
	c.iccJustSet = false
	c.stats = profiler.Stats{}
	c.halted = false
	c.exit = 0
	// Full cache reset (not just a flush): a core reused across runs must
	// replay the replacement RNG and report per-run cache counters exactly
	// like a freshly built one.
	c.icache.Reset()
	c.dcache.Reset()
	c.wbuf.Reset()
	clear(c.bbv)
	// ABI: %sp at top of RAM, 64-byte save area reserved.
	c.setReg(isa.RegSP, mem.RAMBase+uint32(c.memory.Size())-64)
}

// windowCount returns the configured number of register windows.
func (c *Core) windowCount() int { return c.cfg.IU.RegWindows }

// physIndex maps an architectural register in the current window to its
// physical index within the windowed part of the register file (windowed
// registers only; r >= 8). Outs, locals and ins all collapse to
// cwp*16 + (r-8) modulo the windowed count, and since cwp*16+(r-8) <
// 2*nwin the modulo reduces to one conditional subtraction — no integer
// division on the hot path.
func (c *Core) physIndex(r uint8) int {
	i := c.cwp*16 + int(r) - 8
	if i >= c.nwin {
		i -= c.nwin
	}
	return i
}

// rebuildViews recomputes the register view tables for the current
// window. Called whenever cwp changes (Reset, SAVE, RESTORE); between
// rotations every register access is two dependent loads with no
// branches.
func (c *Core) rebuildViews() {
	sink := int32(8 + c.nwin) // one past the windowed registers
	for r := 0; r < 8; r++ {
		c.viewR[r] = int32(r)
		c.viewW[r] = int32(r)
		c.viewHz[r] = int32(-r - 1)
	}
	c.viewW[0] = sink // %g0 writes are discarded
	for r := 8; r < 32; r++ {
		phys := c.physIndex(uint8(r))
		c.viewR[r] = int32(8 + phys)
		c.viewW[r] = int32(8 + phys)
		c.viewHz[r] = int32(phys)
	}
}

// getReg reads architectural register r; %g0 is hardwired to zero
// (regfile[0] is never written: %g0 writes land in the sink slot).
func (c *Core) getReg(r uint8) uint32 {
	return c.regfile[c.viewR[r&31]]
}

// setReg writes architectural register r; writes to %g0 are discarded.
func (c *Core) setReg(r uint8, v uint32) {
	c.regfile[c.viewW[r&31]] = v
}

// Reg exposes register values for tests and the platform's result
// extraction.
func (c *Core) Reg(r uint8) uint32 { return c.getReg(r) }

// SetTrace enables an execution trace: the first limit instructions are
// disassembled to w as they execute. Pass nil to disable.
func (c *Core) SetTrace(w io.Writer, limit uint64) {
	c.traceW = w
	c.traceLimit = limit
}

// EnableBlockVector turns on block-signature collection: every taken
// control transfer (branch, call, register jump) increments the bucket
// its target address maps to, bucket = target>>shift modulo buckets.
// buckets must be a power of two. Enabling is idempotent; the vector
// survives Reset (zeroed, not discarded) so pooled engines keep
// collecting across runs.
func (c *Core) EnableBlockVector(buckets int, shift uint32) {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		panic(fmt.Sprintf("cpu: block vector buckets %d not a power of two", buckets))
	}
	if len(c.bbv) != buckets {
		c.bbv = make([]uint32, buckets)
	}
	c.bbvShift = shift
}

// TakeBlockVector returns a copy of the accumulated block-signature
// vector and zeroes the accumulator — the per-interval snapshot
// primitive. Returns nil when collection is disabled.
func (c *Core) TakeBlockVector() []uint32 {
	if c.bbv == nil {
		return nil
	}
	out := make([]uint32, len(c.bbv))
	copy(out, c.bbv)
	clear(c.bbv)
	return out
}

// noteBlock records a taken control transfer to target in the block
// vector; the reference Step path's counterpart of the fast loop's
// inlined increments.
func (c *Core) noteBlock(target uint32) {
	if c.bbv != nil {
		c.bbv[target>>c.bbvShift&uint32(len(c.bbv)-1)]++
	}
}

// ICC exposes the integer condition codes (read-only, for tests).
func (c *Core) ICC() isa.ICC { return c.icc }

// Y exposes the Y register (read-only, for tests).
func (c *Core) Y() uint32 { return c.y }
