package cpu

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"liquidarch/internal/cache"
	"liquidarch/internal/config"
	"liquidarch/internal/isa"
	"liquidarch/internal/mem"
	"liquidarch/internal/profiler"
)

// Record once, time many (DESIGN.md §22). No configuration parameter
// changes which instructions a program retires, only what each costs: the
// caches, the write buffer, the interlocks, the mul/div latencies and the
// window count are timing. A recording run executes the program once on
// the fast loop (fast.go), which writes a Trace of the stream as it goes
// and hands only its fallback opcodes to Step (recordStep); Trace.Time then
// derives the exact profile of any other configuration from the trace
// alone, replaying only the stateful timing structures (icache, dcache,
// write buffer, window occupancy) and charging every static cost from
// per-run tables.
//
// Window traps are the one place where timing and function meet: a spill
// writes a frame's registers to its save area and a fill reads them back,
// so a program that itself reads or writes a save area, or rewrites %fp
// (the caller's %sp, which names the save area), could observe how many
// windows the configuration has. The recorder flags such a trace
// window-sensitive, and Time then declines every configuration whose
// window count differs from the recording one.
//
// Most configurations of a model build change a latency the trace never
// charges or a structure it never stresses, so Time walks once per timing
// class (TimingClass) and answers every other member of the class from
// that walk's snapshots.

// Per-instruction trace flags.
const (
	flagInterlock uint8 = 1 << iota // load-use interlock before this instruction
	flagICC                         // Bicc right after a CC-setting instruction
	flagTaken                       // Bicc taken
)

// saveArea is the size of a frame's register save area: 8 locals and 8
// ins, the words a window spill writes at the frame's %sp.
const saveArea = 64

// Trace is the compact record of one functional run: which straight-line
// runs of text executed in which order, the data addresses they touched,
// and the configuration-independent counts at every cut. It holds no
// register or memory values. A Trace is immutable once its recording core
// stops, apart from its memo of timed classes, and Time may then be called
// concurrently.
type Trace struct {
	text     []isa.Instr
	textBase uint32
	ramBytes uint32
	windows  int // RegWindows of the recording configuration
	maxDepth int // the deepest call depth any SAVE reached

	// runs is the table of distinct runs; flags holds every run's
	// per-instruction flags back to back.
	runs  []traceRun
	flags []uint8
	// seq is the dynamic sequence of run ids.
	seq []int32
	// addrs is the address stream in program order: the effective address
	// of every load and store, %sp at every SAVE and %fp at every RESTORE.
	addrs []uint32
	// cuts marks the end of every recording step (Run, RunFor).
	cuts []traceCut
	// fetched lists the distinct instruction-fetch addresses, ascending.
	fetched []uint32

	windowSensitive bool
	unusable        bool

	// stepped counts the instructions recorded through Step (a
	// diagnostic: StepInstructions).
	stepped uint64

	// memo holds one walk per timing class, seeded with the recording
	// run's own snapshots; walks counts the walks Time made.
	mu    sync.Mutex
	memo  map[TimingClass]*classWalk
	walks atomic.Int64
}

// classWalk is the outcome of timing one class: done closes once snaps
// and ok are set.
type classWalk struct {
	done  chan struct{}
	snaps []Snapshot
	ok    bool
}

// traceRun is one straight-line run: n instructions at consecutive text
// indices from start, optionally ended by an annulled delay slot fetched
// at annul.
type traceRun struct {
	start, n uint32
	flagOff  uint32
	annul    uint32
	hasAnnul bool
}

// traceCut is the state at the end of one recording step: positions in
// the run sequence and address stream, the recording run's cumulative
// profile and cache counters (whose configuration-independent counts
// every timed profile copies), and the hazard event counts.
type traceCut struct {
	seq, addrs int
	rec        Snapshot
	interlocks uint64 // load-use interlock events
	iccHolds   uint64 // Bicc directly after a CC-setting instruction
}

// Snapshot is the cumulative profile and cache counters of a run at one
// cut.
type Snapshot struct {
	Stats          profiler.Stats
	ICache, DCache cache.Stats
}

// WindowSensitive reports whether the program may observe the window
// count through its save areas or %fp, so that Time serves only
// configurations with the recording window count.
func (t *Trace) WindowSensitive() bool { return t.windowSensitive }

// Bytes returns the trace's heap footprint: its tables and streams.
func (t *Trace) Bytes() int {
	return len(t.runs)*int(unsafe.Sizeof(traceRun{})) + len(t.flags) +
		4*(len(t.seq)+len(t.addrs)+len(t.fetched)) +
		len(t.cuts)*int(unsafe.Sizeof(traceCut{}))
}

// recorder is the per-core recording state behind StartRecording.
//
// The fast loop (fast.go) writes it as it runs, without a call on its
// common paths: every data address goes straight to addrs, and ev logs
// in program order the start of every run (a dispatch whose text index
// does not continue the run the loop is in, which key tracks), the flags
// of the few instructions that carry one and every annulled slot. The
// fallback opcodes go through recordStep, which logs the same events
// around one reference Step. decode folds the log into the run table and
// the run sequence every recChunk events, at every cut and at
// StopRecording.
type recorder struct {
	t *Trace

	// class holds each text word's recording class (recLoad, recStore,
	// recSave, recRestore, plus recWritesFP), decoded once.
	class []uint8

	// Written by the fast loop. key is idx-num of the run the loop is in:
	// an instruction numbered num (the retired count before it) at text
	// index idx continues that run iff idx-num == key; noRun when no run
	// is open.
	ev    []recEvent
	key   uint64
	addrs []uint32
	// lo and hi bound the save areas (areas): the fast loop calls guard
	// only for an access at addr with addr < hi and addr+4 > lo, 4 bytes
	// being the widest access.
	lo, hi uint32

	// The open run of the decoded log: it starts at text index start with
	// instruction number first, and cur lists its flagged instructions in
	// order, each as offset<<8 | flags.
	open  bool
	start uint32
	first uint64
	cur   []uint64
	seq   []int32

	// info holds each interned run's flag list, hazard counts and
	// successors. last is the id of the last closed run, -1 before the
	// first; heads[idx] is 1 + the id of the latest run interned at text
	// index idx, 0 for none.
	info  []runInfo
	last  int32
	heads []int32

	interlocks, iccHolds uint64
	stepped              uint64 // instructions recorded through Step

	// Window stack: frames[k] is the %sp that the frame at call depth k
	// had when it executed its SAVE. areas are the distinct save-area
	// bases ever recorded, sorted.
	depth  int
	frames []uint32
	areas  []uint32
}

// recEvent is one entry of the recording log: a run starting at text
// index arg with instruction num (kind 0), an annulled slot fetched at
// arg that ends the open run before instruction num (evAnnul), the
// interlocks of instructions num+k for every bit k set in arg
// (evInterlocks), or the flags of instruction num (any other kind).
type recEvent struct {
	num  uint64
	arg  uint32
	kind uint8
}

const (
	evAnnul      uint8 = 1 << 7
	evInterlocks uint8 = 1 << 6
	// noRun is the recorder key while no run is open: idx-num never takes
	// it, as an instruction count stays far below 2^62.
	noRun uint64 = 1 << 62
	// recChunk is the log length at which the fast loop decodes it, at
	// the next run start.
	recChunk = 4096
)

// runInfo is what the recorder keeps of an interned run beside its
// traceRun.
type runInfo struct {
	flags                []uint64 // flagged instructions, as in recorder.cur
	interlocks, iccHolds uint64
	// succ is the id of the run that followed this one last time, -1 if
	// none yet; same is the id interned before it at the same text
	// index, -1 if none.
	succ, same int32
}

// Recording classes of a text word.
const (
	recLoad uint8 = 1 + iota
	recStore
	recSave
	recRestore
	recKind     = 7      // mask of the kind above
	recWritesFP = 1 << 3 // the instruction writes %fp
)

func recClass(in *isa.Instr) uint8 {
	var c uint8
	switch op := in.Op; {
	case op.IsLoad():
		c = recLoad
	case op.IsStore():
		c = recStore
	case op == isa.OpSave:
		c = recSave
	case op == isa.OpRestore:
		c = recRestore
	}
	if in.Rd == isa.RegFP && writesRd(in.Op) {
		c |= recWritesFP
	}
	return c
}

// StartRecording makes every following run step of c record into a new
// Trace, which is complete once StopRecording returns. Call it after
// LoadText; recording covers every instruction retired until
// StopRecording. The run executes on the fast loop as usual; a recording
// core prints no execution trace (SetTrace).
func (c *Core) StartRecording() *Trace {
	t := &Trace{
		text:     c.text,
		textBase: c.textBase,
		ramBytes: uint32(c.memory.Size()),
		windows:  c.cfg.IU.RegWindows,
		memo:     make(map[TimingClass]*classWalk),
	}
	class := make([]uint8, len(c.text))
	for i := range c.text {
		class[i] = recClass(&c.text[i])
	}
	c.rec = &recorder{
		t:     t,
		class: class,
		ev:    make([]recEvent, 0, recChunk+2*sbMaxOps),
		key:   noRun,
		lo:    ^uint32(0),
		last:  -1,
		heads: make([]int32, len(c.text)),
		// A pooled core records the same program again, so the last
		// recording's stream lengths fit; growing these multi-megabyte
		// streams by append costs 10-15% of a recording (record-x).
		seq:   make([]int32, 0, c.recCap.seq),
		addrs: make([]uint32, 0, c.recCap.addrs),
	}
	return t
}

// StopRecording detaches the recorder and seals its trace.
func (c *Core) StopRecording() {
	r := c.rec
	if r == nil {
		return
	}
	c.rec = nil
	r.decode()
	r.closeAt(c.stats.Instructions, 0, false)
	t := r.t
	t.seq, t.addrs, t.stepped = r.seq, r.addrs, r.stepped
	c.recCap.seq, c.recCap.addrs = len(t.seq), len(t.addrs)
	t.fetched = fetchAddresses(t)
	// A program that rewrites %fp moves the save area its caller's window
	// spills to. Runs are interned, so checking each distinct run once
	// covers every instruction the recording executed.
	for _, run := range t.runs {
		for i := run.start; i < run.start+run.n; i++ {
			if r.class[i]&recWritesFP != 0 {
				t.windowSensitive = true
			}
		}
	}
	if t.unusable {
		return
	}
	// The recording run is its own configuration's walk.
	seed := &classWalk{done: make(chan struct{}), snaps: make([]Snapshot, len(t.cuts)), ok: true}
	for k := range t.cuts {
		seed.snaps[k] = t.cuts[k].rec
	}
	close(seed.done)
	k, _ := t.class(c.cfg)
	t.memo[k] = seed
}

// StepInstructions returns how many instructions the recording executed
// on the reference Step path: the fallback opcodes the fast loop hands to
// Step (SAVE, RESTORE, Ticc), not the common ones it records itself.
func (t *Trace) StepInstructions() uint64 { return t.stepped }

// decode folds the logged events into the run sequence and empties the
// log.
func (r *recorder) decode() {
	for i := range r.ev {
		e := &r.ev[i]
		switch e.kind {
		case 0:
			r.closeAt(e.num, 0, false)
			r.open, r.start, r.first = true, e.arg, e.num
			r.cur = r.cur[:0]
		case evAnnul:
			r.closeAt(e.num, e.arg, true)
		case evInterlocks:
			for m := e.arg; m != 0; m &= m - 1 {
				r.flag(e.num+uint64(bits.TrailingZeros32(m)), flagInterlock)
			}
		default:
			r.flag(e.num, e.kind)
		}
	}
	r.ev = r.ev[:0]
}

// flag ORs fl into the flags of instruction num of the open run. Offsets
// only grow within a run, but one instruction may be flagged twice.
func (r *recorder) flag(num uint64, fl uint8) {
	x := (num-r.first)<<8 | uint64(fl)
	if k := len(r.cur) - 1; k >= 0 && r.cur[k]>>8 == x>>8 {
		r.cur[k] |= x
	} else {
		r.cur = append(r.cur, x)
	}
}

// recordStep executes the instruction at the pc on the reference Step
// path and records it: the fast loop hands over its fallback opcodes.
func (c *Core) recordStep() error {
	r := c.rec
	pc := c.pc
	idx := (pc - c.textBase) >> 2
	if pc&3 != 0 || uint64(idx) >= uint64(len(c.text)) {
		return c.Step() // reports the fault
	}
	in := &c.text[idx]
	class := r.class[idx]
	num := c.stats.Instructions
	var fl uint8
	if c.loadHazardReg != noHazard && c.readsReg(in, c.loadHazardReg) {
		fl |= flagInterlock
	}
	if c.iccJustSet && in.Op == isa.OpBicc {
		fl |= flagICC
	}
	var addr uint32
	switch class & recKind {
	case recLoad, recStore:
		addr = c.getReg(in.Rs1) + c.operand2(in)
	case recSave:
		addr = c.getReg(isa.RegSP)
	case recRestore:
		addr = c.getReg(isa.RegFP)
	}
	taken, annulled, npc := c.stats.TakenBranches, c.stats.AnnulledSlots, c.npc
	if err := c.Step(); err != nil {
		return err
	}
	r.stepped++
	if c.stats.TakenBranches != taken {
		fl |= flagTaken
	}
	if uint64(idx)-num != r.key {
		if len(r.ev) >= recChunk {
			r.decode()
		}
		r.key = uint64(idx) - num
		r.ev = append(r.ev, recEvent{num: num, arg: idx})
	}
	if fl != 0 {
		r.ev = append(r.ev, recEvent{num: num, kind: fl})
	}
	switch class & recKind {
	case recLoad, recStore:
		r.addrs = append(r.addrs, addr)
		r.guard(addr, accessBytes(in.Op))
	case recSave:
		r.addrs = append(r.addrs, addr)
		r.save(addr)
	case recRestore:
		r.addrs = append(r.addrs, addr)
		r.restore()
	}
	if c.stats.AnnulledSlots != annulled {
		r.ev = append(r.ev, recEvent{num: c.stats.Instructions, arg: npc, kind: evAnnul})
		r.key = noRun
	}
	return nil
}

// writesRd reports whether op writes its rd register.
func writesRd(op isa.Opcode) bool {
	switch op {
	case isa.OpBicc, isa.OpCall, isa.OpTicc, isa.OpWrY, isa.OpSt, isa.OpStB, isa.OpStH:
		return false
	}
	return true
}

// accessBytes is the data width of a load or store.
func accessBytes(op isa.Opcode) uint32 {
	switch op {
	case isa.OpLdUB, isa.OpLdSB, isa.OpStB:
		return 1
	case isa.OpLdUH, isa.OpLdSH, isa.OpStH:
		return 2
	}
	return 4
}

// closeAt ends the open run before instruction num and appends its id to
// the sequence, interning it in the run table when it is new. hasAnnul
// says the run ends with an annulled slot fetched at annul.
func (r *recorder) closeAt(num uint64, annul uint32, hasAnnul bool) {
	if !r.open {
		return
	}
	r.open = false
	n := uint32(num - r.first)
	// Loops repeat: the run that followed the previous one last time is
	// the likeliest match.
	id := int32(-1)
	if r.last >= 0 {
		if p := r.info[r.last].succ; p >= 0 && r.matches(p, n, annul, hasAnnul) {
			id = p
		}
	}
	if id < 0 {
		id = r.intern(n, annul, hasAnnul)
		if r.last >= 0 {
			r.info[r.last].succ = id
		}
	}
	r.seq = append(r.seq, id)
	r.last = id
	r.interlocks += r.info[id].interlocks
	r.iccHolds += r.info[id].iccHolds
}

// matches reports whether run id is the open run of n instructions.
func (r *recorder) matches(id int32, n, annul uint32, hasAnnul bool) bool {
	run := &r.t.runs[id]
	return run.start == r.start && run.n == n && run.hasAnnul == hasAnnul &&
		(!hasAnnul || run.annul == annul) && slices.Equal(r.info[id].flags, r.cur)
}

// intern returns the id of the open run of n instructions, adding it to
// the run table when it is new.
func (r *recorder) intern(n, annul uint32, hasAnnul bool) int32 {
	for id := r.heads[r.start] - 1; id >= 0; id = r.info[id].same {
		if r.matches(id, n, annul, hasAnnul) {
			return id
		}
	}
	t := r.t
	id := int32(len(t.runs))
	t.runs = append(t.runs, traceRun{start: r.start, n: n, flagOff: uint32(len(t.flags)), annul: annul, hasAnnul: hasAnnul})
	info := runInfo{flags: slices.Clone(r.cur), succ: -1, same: r.heads[r.start] - 1}
	flags := make([]uint8, n)
	for _, e := range r.cur {
		fl := uint8(e)
		flags[e>>8] = fl
		if fl&flagInterlock != 0 {
			info.interlocks++
		}
		if fl&flagICC != 0 {
			info.iccHolds++
		}
	}
	t.flags = append(t.flags, flags...)
	r.info = append(r.info, info)
	r.heads[r.start] = id + 1
	return id
}

// cut closes the open run and marks the end of a recording step.
func (r *recorder) cut(c *Core) {
	r.decode()
	r.closeAt(c.stats.Instructions, 0, false)
	r.key = noRun
	r.t.cuts = append(r.t.cuts, traceCut{
		seq:        len(r.seq),
		addrs:      len(r.addrs),
		rec:        Snapshot{Stats: c.stats, ICache: c.icache.Stats(), DCache: c.dcache.Stats()},
		interlocks: r.interlocks,
		iccHolds:   r.iccHolds,
	})
}

// save notes a SAVE executed with %sp == sp: the frame at the current
// depth may from now on be spilled to the save area at sp.
func (r *recorder) save(sp uint32) {
	if r.depth < len(r.frames) {
		r.frames[r.depth] = sp
	} else {
		r.frames = append(r.frames, sp)
	}
	r.depth++
	r.t.maxDepth = max(r.t.maxDepth, r.depth)
	if i, found := slices.BinarySearch(r.areas, sp); !found {
		r.areas = slices.Insert(r.areas, i, sp)
	}
	r.lo = min(r.lo, sp)
	r.hi = max(r.hi, sp+saveArea)
}

// restore notes a RESTORE: the frame returns to its caller's depth.
// Returning past the initial frame fills a window nobody spilled, whose
// contents depend on the window count, so the trace is unusable.
func (r *recorder) restore() {
	if r.depth == 0 {
		r.t.unusable = true
	} else {
		r.depth--
	}
}

// guard flags the trace window-sensitive when a program access of n bytes
// at addr overlaps a save area some window spill may have written: what
// such an access reads, or what a later fill reads back after it, can
// depend on the window count. Every area ever recorded counts, live or
// not, because a spill's words outlive the frame they belonged to.
func (r *recorder) guard(addr, n uint32) {
	// An area [b, b+saveArea) overlaps [addr, addr+n) iff
	// addr-saveArea < b < addr+n.
	var from uint32
	if addr >= saveArea {
		from = addr - saveArea + 1
	}
	if i, _ := slices.BinarySearch(r.areas, from); i < len(r.areas) && r.areas[i] < addr+n {
		r.t.windowSensitive = true
	}
}

// fetchAddresses lists the distinct addresses the trace fetches from,
// ascending: every instruction of every run and every annulled slot.
func fetchAddresses(t *Trace) []uint32 {
	var out []uint32
	for _, run := range t.runs {
		for i := uint32(0); i < run.n; i++ {
			out = append(out, t.textBase+(run.start+i)*4)
		}
		if run.hasAnnul {
			out = append(out, run.annul)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Timing-pass ops. A configuration compiles every run into a short list
// of ops; each op carries the static cycles charged before its event.
const (
	opEnd uint8 = iota
	opFetch
	opLoad
	opStore
	opSave
	opRestore
)

// timeOp is one event of a compiled run. addr is the fetch address of an
// opFetch, and on the opEnd of a warm list the number of fetches the
// list skipped, which are credited as icache hits.
type timeOp struct {
	pre  uint32
	kind uint8
	addr uint32
}

// latencies are the per-configuration charges of §6, shared by New and
// the timing pass.
type latencies struct {
	mulExtra, divExtra     uint64
	imiss, dmiss           uint64
	jumpExtra, decodeExtra uint64
	loadDelay              uint64
	iccHold                bool
	windows                int
}

func latenciesOf(cfg config.Config) latencies {
	timing := mem.DefaultTiming()
	l := latencies{
		mulExtra:  mulLatency[cfg.IU.Multiplier] - 1,
		divExtra:  divLatency[cfg.IU.Divider] - 1,
		imiss:     uint64(timing.BurstReadCycles(cfg.ICache.LineWords)),
		dmiss:     uint64(timing.BurstReadCycles(cfg.DCache.LineWords)),
		loadDelay: uint64(cfg.IU.LoadDelay),
		iccHold:   cfg.IU.ICCHold,
		windows:   cfg.IU.RegWindows,
	}
	if !cfg.IU.FastJump {
		l.jumpExtra = 1
	}
	if !cfg.IU.FastDecode {
		l.decodeExtra = 1
	}
	return l
}

// compile builds every run's op lists for one configuration and returns
// the ops with each run's cold list (probes every fetch) and warm list
// (skips the fetch probes, for runs the icache provably holds).
func (t *Trace) compile(l latencies) (ops []timeOp, cold, warm []uint32) {
	ops = make([]timeOp, 0, len(t.runs)*4)
	cold = make([]uint32, len(t.runs))
	warm = make([]uint32, len(t.runs))
	for id := range t.runs {
		run := &t.runs[id]
		cold[id] = uint32(len(ops))
		ops = t.compileRun(ops, run, l, false)
		warm[id] = uint32(len(ops))
		ops = t.compileRun(ops, run, l, true)
	}
	return ops, cold, warm
}

// compileRun appends one run's op list, charging each instruction as
// Step does (§6). A warm list leaves out the fetch probes and counts
// them on its opEnd.
func (t *Trace) compileRun(ops []timeOp, run *traceRun, l latencies, warm bool) []timeOp {
	var static uint32
	emit := func(kind uint8, addr uint32) {
		ops = append(ops, timeOp{pre: static, kind: kind, addr: addr})
		static = 0
	}
	var skipped uint32
	fetch := func(addr uint32) {
		if warm {
			skipped++
		} else {
			emit(opFetch, addr)
		}
	}
	for i := uint32(0); i < run.n; i++ {
		idx := run.start + i
		in := &t.text[idx]
		fl := t.flags[run.flagOff+i]
		fetch(t.textBase + idx*4)
		static++
		if fl&flagInterlock != 0 {
			static += uint32(l.loadDelay)
		}
		switch op := in.Op; {
		case op.IsLoad():
			static++
			emit(opLoad, 0)
		case op.IsStore():
			static += 2
			emit(opStore, 0)
		case op.IsMul():
			static += uint32(l.mulExtra)
		case op.IsDiv():
			static += uint32(l.divExtra)
		case op == isa.OpBicc:
			if fl&flagICC != 0 && l.iccHold {
				static++
			}
			if fl&flagTaken != 0 {
				static += 1 + uint32(l.decodeExtra)
			}
		case op == isa.OpCall:
			static += 1 + uint32(l.decodeExtra)
		case op == isa.OpJmpl:
			static += 1 + uint32(l.decodeExtra) + uint32(l.jumpExtra)
		case op == isa.OpSave:
			emit(opSave, 0)
		case op == isa.OpRestore:
			emit(opRestore, 0)
		}
	}
	if run.hasAnnul {
		fetch(run.annul)
		static++
	}
	emit(opEnd, skipped)
	return ops
}

// icacheHoldsText reports whether every line the trace fetches fits its
// set without exceeding the associativity: then no fetch ever evicts, a
// line once filled always hits, and a run's second and later executions
// can skip their probes. A set never full never consults the replacement
// policy, so the skipped probes change no later decision either.
func (t *Trace) icacheHoldsText(cfg config.CacheConfig) bool {
	lineBytes := uint32(cfg.LineWords * 4)
	numLines := uint32(cfg.SetSizeKB) * 1024 / lineBytes
	perSet := make(map[uint32]int)
	last := ^uint32(0)
	for _, a := range t.fetched { // ascending, so equal lines are adjacent
		line := a / lineBytes
		if line == last {
			continue
		}
		last = line
		set := line & (numLines - 1)
		perSet[set]++
		if perSet[set] > cfg.Sets {
			return false
		}
	}
	return true
}

// timer is one configuration's timing state.
type timer struct {
	l      latencies
	ic, dc *cache.Cache
	wb     *mem.WriteBuffer

	cyc, icHits                         uint64
	icStall, dcStall, wbStall, winStall uint64
	overflows, underflows               uint64
	ai                                  int // next address-stream position
	depth, resid                        int
	frames                              []uint32
	ramLo, ramHi                        uint32
}

// TimingClass is the projection of a configuration onto what one trace's
// timing walk can observe. Configurations with equal classes on a trace
// time to identical snapshots; each part is proven so by the trace:
//
//   - windows: a count with room for every frame the trace nests (its
//     deepest SAVE at most W-2 deep) never overflows, and so never
//     underflows, so all such counts are one class;
//   - latencies: each extra charge the trace has no event for (no mul, no
//     div, no jump, no taken CTI, no interlock, no ICC hold) is 0;
//   - icache: when it holds the text (icacheHoldsText), only the line
//     length, which fixes the cold misses and their penalty;
//   - dcache: the whole configuration.
type TimingClass struct {
	l      latencies
	ic, dc config.CacheConfig
}

// total is the recording run's profile at its last cut.
func (t *Trace) total() (st profiler.Stats, interlocks, iccHolds uint64) {
	if len(t.cuts) == 0 {
		return
	}
	cut := &t.cuts[len(t.cuts)-1]
	return cut.rec.Stats, cut.interlocks, cut.iccHolds
}

// class returns cfg's timing class and whether its icache holds the text.
func (t *Trace) class(cfg config.Config) (k TimingClass, holdsText bool) {
	st, interlocks, iccHolds := t.total()
	l := latenciesOf(cfg)
	if t.maxDepth <= l.windows-2 {
		l.windows = 0
	}
	if st.Mults == 0 {
		l.mulExtra = 0
	}
	if st.Divs == 0 {
		l.divExtra = 0
	}
	if st.Jumps == 0 {
		l.jumpExtra = 0
	}
	if st.TakenBranches == 0 && st.Calls == 0 && st.Jumps == 0 {
		l.decodeExtra = 0
	}
	if interlocks == 0 {
		l.loadDelay = 0
	}
	if iccHolds == 0 {
		l.iccHold = false
	}
	k = TimingClass{l: l, ic: cfg.ICache, dc: cfg.DCache}
	if holdsText = t.icacheHoldsText(cfg.ICache); holdsText {
		k.ic = config.CacheConfig{LineWords: cfg.ICache.LineWords}
	}
	return k, holdsText
}

// declines reports whether the trace cannot stand in for a run on cfg:
// cfg is invalid, the trace is window-sensitive and cfg has another window
// count, or the recorded program returned past its initial frame.
func (t *Trace) declines(cfg config.Config) bool {
	return cfg.Validate() != nil || t.unusable ||
		(t.windowSensitive && cfg.IU.RegWindows != t.windows)
}

// Class returns cfg's timing class on this trace, or false when Time
// declines cfg outright.
func (t *Trace) Class(cfg config.Config) (TimingClass, bool) {
	if t.declines(cfg) {
		return TimingClass{}, false
	}
	k, _ := t.class(cfg)
	return k, true
}

// Walks returns the number of walks Time has made over the trace: one per
// timing class it was asked for, except the recording configuration's.
func (t *Trace) Walks() int { return int(t.walks.Load()) }

// Time derives the run's cumulative profile at every cut on cfg, exactly
// as a fresh run of the program on cfg would report it. The first call for
// a timing class walks the trace, concurrent callers of that class wait
// for it, and later ones reuse it; shared reports that the snapshots came
// from an earlier walk or the recording run itself. ok is false when the
// trace cannot stand in for such a run: Class declines cfg, or cfg would
// spill or fill a window outside RAM where the recording run did not.
func (t *Trace) Time(cfg config.Config) (snaps []Snapshot, shared, ok bool) {
	if t.declines(cfg) {
		return nil, false, false
	}
	k, holdsText := t.class(cfg)
	t.mu.Lock()
	w, shared := t.memo[k]
	if !shared {
		w = &classWalk{done: make(chan struct{})}
		t.memo[k] = w
	}
	t.mu.Unlock()
	if shared {
		<-w.done
	} else {
		t.walks.Add(1)
		w.snaps, w.ok = t.walkClass(cfg, holdsText)
		close(w.done)
	}
	if !w.ok {
		return nil, false, false
	}
	return slices.Clone(w.snaps), shared, true
}

// walkClass times cfg by walking the whole trace.
func (t *Trace) walkClass(cfg config.Config, holdsText bool) ([]Snapshot, bool) {
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return nil, false
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		return nil, false
	}
	l := latenciesOf(cfg)
	ops, start, warm := t.compile(l)
	if !holdsText {
		warm = start // every execution probes every fetch
	}
	tm := &timer{
		l: l, ic: ic, dc: dc, wb: mem.NewWriteBuffer(mem.DefaultTiming()),
		resid: 1,
		ramLo: mem.RAMBase, ramHi: mem.RAMBase + t.ramBytes,
	}
	snaps := make([]Snapshot, len(t.cuts))
	from := 0
	for k := range t.cuts {
		cut := &t.cuts[k]
		if !tm.walk(ops, start, warm, t.seq[from:cut.seq], t.addrs) {
			return nil, false
		}
		from = cut.seq
		if tm.ai != cut.addrs {
			panic(fmt.Sprintf("cpu: trace address stream out of step at cut %d: %d != %d", k, tm.ai, cut.addrs))
		}
		snaps[k] = tm.snapshot(cut)
	}
	return snaps, true
}

// walk times the runs of seq in order. start[id] is the op list the
// next execution of run id takes; after it the run switches to warm[id].
// The hot state lives in locals; a direct-mapped dcache (the LEON
// default) is probed inline through its tag store, with its counters
// credited in bulk when the walk ends.
func (tm *timer) walk(ops []timeOp, start, warm []uint32, seq []int32, addrs []uint32) bool {
	l := &tm.l
	ic, dc, wb := tm.ic, tm.dc, tm.wb
	tags, lineShift, tagShift, mask, direct := dc.Direct()
	var rdHits, rdMisses, wrHits, wrMisses uint64
	cyc, ai, icHits := tm.cyc, tm.ai, tm.icHits
	icStall, dcStall, wbStall := tm.icStall, tm.dcStall, tm.wbStall
	for _, id := range seq {
		i := start[id]
		start[id] = warm[id]
	run:
		for ; ; i++ {
			op := ops[i]
			cyc += uint64(op.pre)
			switch op.kind {
			case opEnd:
				icHits += uint64(op.addr)
				break run
			case opFetch:
				if !ic.Read(op.addr) {
					cyc += l.imiss
					icStall += l.imiss
				}
			case opLoad:
				a := addrs[ai]
				ai++
				if a >= deviceBase {
					continue
				}
				if direct {
					j := a >> lineShift & mask
					if tags[j] == a>>tagShift {
						rdHits++
						continue
					}
					tags[j] = a >> tagShift
					rdMisses++
				} else if dc.Read(a) {
					continue
				}
				cyc += l.dmiss
				dcStall += l.dmiss
			case opStore:
				a := addrs[ai]
				ai++
				if a >= deviceBase {
					continue
				}
				if !direct {
					dc.Write(a)
				} else if tags[a>>lineShift&mask] == a>>tagShift {
					wrHits++
				} else {
					wrMisses++
				}
				s := wb.Store(cyc)
				cyc += s
				wbStall += s
			case opSave, opRestore:
				tm.cyc = cyc
				ok := false
				if op.kind == opSave {
					ok = tm.save(addrs[ai])
				} else {
					ok = tm.restore(addrs[ai])
				}
				if !ok {
					return false
				}
				ai++
				cyc = tm.cyc
			}
		}
	}
	dc.AddReadHits(rdHits)
	dc.AddDirectReadMisses(rdMisses)
	dc.AddWriteHits(wrHits)
	dc.AddDirectWriteMisses(wrMisses)
	tm.cyc, tm.ai, tm.icHits = cyc, ai, icHits
	tm.icStall, tm.dcStall, tm.wbStall = icStall, dcStall, wbStall
	return true
}

// frameOK reports whether a window trap at sp stays inside RAM and word
// aligned, as every trap of the recording run did.
func (tm *timer) frameOK(sp uint32) bool {
	return sp&3 == 0 && sp >= tm.ramLo && sp <= tm.ramHi-saveArea
}

// save replays a SAVE executed with %sp == sp: a window overflow spills
// the oldest resident frame's 16 words through the dcache and the write
// buffer (execSave, trapStore).
func (tm *timer) save(sp uint32) bool {
	if tm.depth < len(tm.frames) {
		tm.frames[tm.depth] = sp
	} else {
		tm.frames = append(tm.frames, sp)
	}
	if tm.resid == tm.l.windows-1 {
		tm.overflows++
		tm.winStall += windowTrapOverhead
		tm.cyc += windowTrapOverhead
		base := tm.frames[tm.depth-(tm.resid-1)]
		if !tm.frameOK(base) {
			return false
		}
		for j := uint32(0); j < 16; j++ {
			tm.dc.Write(base + j*4)
			cycles := 1 + tm.wb.Store(tm.cyc+1)
			tm.winStall += cycles
			tm.cyc += cycles
		}
	} else {
		tm.resid++
	}
	tm.depth++
	return true
}

// restore replays a RESTORE executed with %fp == fp: a window underflow
// fills the caller's 16 words from its save area at fp through the dcache
// (execRestore, trapLoad).
func (tm *timer) restore(fp uint32) bool {
	if tm.resid == 1 {
		tm.underflows++
		tm.winStall += windowTrapOverhead
		tm.cyc += windowTrapOverhead
		if !tm.frameOK(fp) {
			return false
		}
		for j := uint32(0); j < 16; j++ {
			cycles := uint64(1)
			if !tm.dc.Read(fp + j*4) {
				cycles += tm.l.dmiss
			}
			tm.winStall += cycles
			tm.cyc += cycles
		}
	} else {
		tm.resid--
	}
	tm.depth--
	return true
}

// snapshot assembles the cumulative profile at a cut: the recorded
// configuration-independent counts, the stalls that are a count times a
// latency in closed form, and the replayed ones.
func (tm *timer) snapshot(cut *traceCut) Snapshot {
	l := tm.l
	st := cut.rec.Stats
	st.Cycles = tm.cyc
	st.ICacheStall = tm.icStall
	st.DCacheStall = tm.dcStall
	st.WriteBufStall = tm.wbStall
	st.WindowTrapStall = tm.winStall
	st.WindowOverflows = tm.overflows
	st.WindowUnderflows = tm.underflows
	st.LoadInterlock = cut.interlocks * l.loadDelay
	st.ICCHoldStall = 0
	if l.iccHold {
		st.ICCHoldStall = cut.iccHolds
	}
	st.MulStall = st.Mults * l.mulExtra
	st.DivStall = st.Divs * l.divExtra
	st.JumpPenalty = st.Jumps * l.jumpExtra
	st.DecodeStall = st.BranchPenalty * l.decodeExtra
	ics := tm.ic.Stats()
	ics.ReadAccesses += tm.icHits
	return Snapshot{Stats: st, ICache: ics, DCache: tm.dc.Stats()}
}
