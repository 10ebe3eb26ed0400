package cpu

import (
	"context"
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
// Most configurations of a model build change an IU latency, which moves
// no timing event and is charged in closed form, or a structure the trace
// never stresses, so Time walks once per timing class (TimingClass) and
// answers every other member of the class from that walk's snapshots. A
// walk is resumable: the recording publishes its growing trace, and Follow
// walks the classes that differ from the recording configuration in the
// dcache alone behind it, on another core, while the program still runs.
// A Replay walks the sealed trace through a schedule of configurations, as
// a reconfiguring run would see it.

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
// stops (it is sealed), apart from its memo of timed classes, and Time may
// then be called concurrently. While the recording runs, the trace
// publishes its growing prefix, and Follow walks dcache classes behind it.
type Trace struct {
	text     []isa.Instr
	textBase uint32
	ramBytes uint32
	cfg      config.Config // the recording configuration
	maxDepth int           // the deepest call depth any SAVE reached

	// The whole trace, set when it is sealed.
	published
	// fetched lists the distinct instruction-fetch addresses, ascending.
	fetched []uint32

	windowSensitive bool
	unusable        bool

	// stepped counts the instructions recorded through Step (a
	// diagnostic: StepInstructions).
	stepped uint64

	// pub is the prefix the recording has published, next closes at the
	// next publication, and sealed once the trace is complete.
	pubMu  sync.Mutex
	pub    published
	next   chan struct{}
	sealed chan struct{}

	// memo holds one walk per timing class, seeded with the recording
	// run's own snapshots. early lists the walks Follow started behind the
	// recording; the seal files them into memo and sets filed. walks
	// counts the walks made, followed those of them filed from behind the
	// recording.
	mu       sync.Mutex
	memo     map[TimingClass]*classWalk
	early    []*classWalk
	filed    bool
	walks    atomic.Int64
	followed atomic.Int64
}

// published is a prefix of a growing trace. The recorder only appends
// past what it has published, so a reader walks a prefix without a copy.
type published struct {
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
}

// newTrace returns the empty trace of a recording on c.
func newTrace(c *Core) *Trace {
	return &Trace{
		text:     c.text,
		textBase: c.textBase,
		ramBytes: uint32(c.memory.Size()),
		cfg:      c.cfg,
		next:     make(chan struct{}),
		sealed:   make(chan struct{}),
		memo:     make(map[TimingClass]*classWalk),
	}
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
// the run sequence every chunk events, at every cut and at
// StopRecording, and publishes the grown trace each time (publish).
type recorder struct {
	t *Trace

	// The trace under construction, which the trace gets at
	// StopRecording; t.pub is a prefix of it. The fast loop appends every
	// data address to addrs.
	published

	// class holds each text word's recording class (recLoad, recStore,
	// recSave, recRestore, plus recWritesFP), decoded once.
	class []uint8

	// Written by the fast loop. key is idx-num of the run the loop is in:
	// an instruction numbered num (the retired count before it) at text
	// index idx continues that run iff idx-num == key; noRun when no run
	// is open.
	ev    []recEvent
	chunk int // the log length at which the fast loop decodes
	key   uint64
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
	// maxRecChunk is the longest log the fast loop decodes at, at the next
	// run start; a recording publishes its trace at every decode.
	maxRecChunk = 4096
)

// recChunk is the decode length of the next recording (SetRecordChunk).
var recChunk atomic.Int64

func init() { recChunk.Store(maxRecChunk) }

// SetRecordChunk sets the log length at which later recordings decode and
// publish their trace, from 1 to 4096 (the default), and returns the
// previous length. Tests shrink it so that Follow walks many short
// prefixes.
func SetRecordChunk(n int) int {
	return int(recChunk.Swap(int64(min(max(n, 1), maxRecChunk))))
}

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
// Trace, which is sealed once StopRecording returns. Call it after
// LoadText; recording covers every instruction retired until
// StopRecording. The run executes on the fast loop as usual; a recording
// core prints no execution trace (SetTrace).
func (c *Core) StartRecording() *Trace {
	t := newTrace(c)
	class := make([]uint8, len(c.text))
	for i := range c.text {
		class[i] = recClass(&c.text[i])
	}
	c.rec = &recorder{
		t:     t,
		class: class,
		ev:    make([]recEvent, 0, maxRecChunk+2*sbMaxOps),
		chunk: int(recChunk.Load()),
		key:   noRun,
		lo:    ^uint32(0),
		last:  -1,
		heads: make([]int32, len(c.text)),
		// A pooled core records the same program again, so the last
		// recording's stream lengths fit; growing these multi-megabyte
		// streams by append costs 10-15% of a recording (record-x).
		published: published{
			seq:   make([]int32, 0, c.recCap.seq),
			addrs: make([]uint32, 0, c.recCap.addrs),
		},
	}
	return t
}

// StopRecording detaches the recorder and seals its trace. err is the
// recorded run's outcome: a trace whose run failed declines every
// configuration, so its followers run in full and meet the same error.
func (c *Core) StopRecording(err error) {
	r := c.rec
	if r == nil {
		return
	}
	c.rec = nil
	r.fold()
	r.closeAt(c.stats.Instructions, 0, false)
	t := r.t
	t.published, t.stepped = r.published, r.stepped
	c.recCap.seq, c.recCap.addrs = len(t.seq), len(t.addrs)
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
	if err != nil {
		t.unusable = true
	}
	t.seal()
}

// seal completes the trace: the recording run becomes its own
// configuration's walk, the walks Follow made behind the recording are
// filed under their classes, and the whole trace is published. A walk
// the trace turns out to decline, or whose icache elision the fetched
// text does not license, is discarded.
func (t *Trace) seal() {
	t.fetched = fetchAddresses(t)
	t.mu.Lock()
	early := t.early
	t.early, t.filed = nil, true
	if !t.unusable {
		seed := &classWalk{l: latenciesOf(t.cfg), snaps: make([]Snapshot, len(t.cuts)), ok: true, done: true, claimed: true}
		for k := range t.cuts {
			seed.snaps[k] = t.cuts[k].rec
		}
		k, _ := t.class(t.cfg)
		t.memo[k] = seed
		for _, w := range early {
			if t.declines(w.cfg) {
				continue
			}
			k, holdsText := t.class(w.cfg)
			if _, dup := t.memo[k]; dup || (w.elide && !holdsText) {
				continue
			}
			t.memo[k] = w
			t.walks.Add(1)
			t.followed.Add(1)
		}
	}
	t.mu.Unlock()
	t.pubMu.Lock()
	t.pub = t.published
	close(t.next)
	t.pubMu.Unlock()
	close(t.sealed)
}

// StepInstructions returns how many instructions the recording executed
// on the reference Step path: the fallback opcodes the fast loop hands to
// Step (SAVE, RESTORE, Ticc), not the common ones it records itself.
func (t *Trace) StepInstructions() uint64 { return t.stepped }

// decode folds the logged events into the run sequence and publishes the
// grown trace.
func (r *recorder) decode() {
	r.fold()
	r.publish()
}

// publish makes the trace recorded so far readable to Follow.
func (r *recorder) publish() {
	t := r.t
	t.pubMu.Lock()
	t.pub = r.published
	close(t.next)
	t.next = make(chan struct{})
	t.pubMu.Unlock()
}

// fold folds the logged events into the run sequence and empties the log.
func (r *recorder) fold() {
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
		if len(r.ev) >= r.chunk {
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
	run := &r.runs[id]
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
	id := int32(len(r.runs))
	r.runs = append(r.runs, traceRun{start: r.start, n: n, flagOff: uint32(len(r.flags)), annul: annul, hasAnnul: hasAnnul})
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
	r.flags = append(r.flags, flags...)
	r.info = append(r.info, info)
	r.heads[r.start] = id + 1
	return id
}

// cut closes the open run, marks the end of a recording step and
// publishes the trace up to it.
func (r *recorder) cut(c *Core) {
	r.fold()
	r.closeAt(c.stats.Instructions, 0, false)
	r.key = noRun
	r.cuts = append(r.cuts, traceCut{
		seq:        len(r.seq),
		addrs:      len(r.addrs),
		rec:        Snapshot{Stats: c.stats, ICache: c.icache.Stats(), DCache: c.dcache.Stats()},
		interlocks: r.interlocks,
		iccHolds:   r.iccHolds,
	})
	r.publish()
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

// compileRun appends one run's op list, charging each instruction as
// Step does (§6). A warm list leaves out the fetch probes and counts
// them on its opEnd.
func (t *Trace) compileRun(ops []timeOp, run *traceRun, flags []uint8, l latencies, warm bool) []timeOp {
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
		fl := flags[run.flagOff+i]
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

// holdsLines reports whether every line of the ascending fetch addresses
// fits its set of cfg without exceeding the associativity: then no fetch
// ever evicts, a line once filled always hits, and a run's second and
// later executions can skip their probes. A set never full never consults
// the replacement policy, so the skipped probes change no later decision
// either.
func holdsLines(cfg config.CacheConfig, addrs []uint32) bool {
	lineBytes := uint32(cfg.LineWords * 4)
	numLines := uint32(cfg.SetSizeKB) * 1024 / lineBytes
	perSet := make(map[uint32]int)
	last := ^uint32(0)
	for _, a := range addrs { // ascending, so equal lines are adjacent
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

// icacheHoldsText reports whether cfg holds every line the trace fetches
// (holdsLines).
func (t *Trace) icacheHoldsText(cfg config.CacheConfig) bool { return holdsLines(cfg, t.fetched) }

// textFits reports whether cfg holds the whole static text, which a walk
// behind the recording can decide before the fetched lines are known. It
// implies icacheHoldsText unless the run fetched an annulled slot past
// the text, which the seal checks.
func (t *Trace) textFits(cfg config.CacheConfig) bool {
	addrs := make([]uint32, len(t.text))
	for i := range addrs {
		addrs[i] = t.textBase + uint32(i)*4
	}
	return holdsLines(cfg, addrs)
}

// timer is one configuration's timing state. The walks Follow starts are
// allocated together, and after the seal two workers may finish two of
// them at once, so the padding keeps the state a walk writes on every
// store (the write buffer, held by value) off the cache lines of the
// timer allocated next to it.
type timer struct {
	_      [64]byte
	l      latencies
	ic, dc *cache.Cache
	wb     mem.WriteBuffer

	cyc, icHits                         uint64
	icStall, dcStall, wbStall, winStall uint64
	overflows, underflows               uint64
	ai                                  int // next address-stream position
	depth, resid                        int
	frames                              []uint32
	ramLo, ramHi                        uint32
	_                                   [64]byte
}

// TimingClass is the projection of a configuration onto what one trace's
// timing walk can observe. Configurations with equal classes on a trace
// walk to identical cache events, window traps and write-buffer stalls;
// each part is proven so by the trace:
//
//   - windows: a count with room for every frame the trace nests (its
//     deepest SAVE at most W-2 deep) never overflows, and so never
//     underflows, so all such counts are one class;
//   - icache: when it holds the text (icacheHoldsText), only the line
//     length, which fixes the cold misses and their penalty;
//   - dcache: the whole configuration, up to what TimingKey normalizes.
//
// The IU latencies are no part of it. A store charges 3 cycles before its
// write-buffer event (compileRun), so any store with an instruction
// between it and the previous buffered store arrives at least mem's
// WriteCycles (4) later and cannot stall; the shorter gaps (back-to-back stores, the spill stores of
// a window trap, the first store after a spill) hold no latency charge. So
// the latencies move no event, and a configuration's cycles differ from
// its class walk's by exactly the count times the latency difference of
// each charge (latencies.charge), which Time adds in closed form.
type TimingClass struct {
	windows int
	ic, dc  config.CacheConfig
}

// class returns cfg's timing class and whether its icache holds the text.
func (t *Trace) class(cfg config.Config) (k TimingClass, holdsText bool) {
	k = TimingClass{windows: cfg.IU.RegWindows, ic: cfg.ICache, dc: cfg.TimingKey().DCache}
	if t.maxDepth <= k.windows-2 {
		k.windows = 0
	}
	if holdsText = t.icacheHoldsText(cfg.ICache); holdsText {
		k.ic = config.CacheConfig{LineWords: cfg.ICache.LineWords}
	}
	return k, holdsText
}

// declines reports whether the trace cannot stand in for a run on cfg
// (declineReason).
func (t *Trace) declines(cfg config.Config) bool { return t.declineReason(cfg) != "" }

// declineReason says why the trace cannot stand in for a run on cfg, or
// returns "": cfg is invalid, the recording failed or its program
// returned past its initial frame, or the trace is window-sensitive and
// cfg has another window count.
func (t *Trace) declineReason(cfg config.Config) string {
	switch {
	case cfg.Validate() != nil:
		return "invalid configuration"
	case t.unusable:
		return "unusable recording"
	case t.windowSensitive && cfg.IU.RegWindows != t.cfg.IU.RegWindows:
		return "window-sensitive"
	}
	return ""
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

// Walks returns the number of walks made over the trace: one per timing
// class Time was asked for, except the recording configuration's, and
// one per walk Follow made behind the recording.
func (t *Trace) Walks() int { return int(t.walks.Load()) }

// Followed returns how many of the trace's walks were made behind the
// recording (Follow) and filed at the seal.
func (t *Trace) Followed() int { return int(t.followed.Load()) }

// Time derives the run's cumulative profile at every cut on cfg, exactly
// as a fresh run of the program on cfg would report it. It waits for the
// seal. The first call for a timing class walks the trace, or finishes
// the walk Follow began; concurrent callers of that class wait for it,
// and later ones reuse it. shared reports that the snapshots came from a
// walk an earlier call claimed or from the recording run itself. ok is
// false when the trace cannot stand in for such a run: Class declines
// cfg, or cfg would spill or fill a window outside RAM where the
// recording run did not.
func (t *Trace) Time(cfg config.Config) (snaps []Snapshot, shared, ok bool) {
	<-t.sealed
	if t.declines(cfg) {
		return nil, false, false
	}
	k, holdsText := t.class(cfg)
	t.mu.Lock()
	w := t.memo[k]
	if w == nil {
		w = t.newWalk(cfg, holdsText)
		t.memo[k] = w
		t.walks.Add(1)
	}
	shared = w.claimed
	w.claimed = true
	t.mu.Unlock()
	w.mu.Lock()
	if !w.done {
		w.advance(t, &t.published, true, 0)
	}
	snaps, ok = w.snaps, w.ok
	w.mu.Unlock()
	if !ok {
		return nil, false, false
	}
	snaps = slices.Clone(snaps)
	if l := latenciesOf(cfg); l != w.l {
		for i := range snaps {
			st, cut := &snaps[i].Stats, &t.cuts[i]
			walked := w.l.charge(st, cut)
			st.Cycles += l.charge(st, cut) - walked
		}
	}
	return snaps, shared, true
}

// classWalk is one timing class's walk of the trace: a timer and its
// position in the run sequence, advanced under mu over published
// prefixes. Once it has walked the sealed trace to its end it is done,
// and snaps and ok are final.
type classWalk struct {
	mu  sync.Mutex
	cfg config.Config
	// l holds the latencies the walk charges, which Time converts to
	// those of each member of the class.
	l latencies
	// elide says the icache holds the text, so a run's later executions
	// take its warm op list.
	elide bool
	tm    *timer
	opLists
	seq, cut int // next run-sequence position and cut
	snaps    []Snapshot
	ok, done bool
	// claimed is set, under Trace.mu, by the first Time of the class.
	claimed bool
}

// newWalk starts a walk of cfg at the beginning of the trace.
func (t *Trace) newWalk(cfg config.Config, elide bool) *classWalk {
	w := &classWalk{cfg: cfg, l: latenciesOf(cfg), elide: elide}
	w.tm = t.newTimer(cfg)
	w.done = w.tm == nil
	return w
}

// newTimer returns the timing state of a run on cfg at its start, or nil
// when cfg's caches cannot be built.
func (t *Trace) newTimer(cfg config.Config) *timer {
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return nil
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		return nil
	}
	return &timer{
		l: latenciesOf(cfg), ic: ic, dc: dc, wb: *mem.NewWriteBuffer(mem.DefaultTiming()),
		resid: 1,
		ramLo: mem.RAMBase, ramHi: mem.RAMBase + t.ramBytes,
	}
}

// advance walks w on over the published prefix p by at most budget runs
// (0: no bound), taking the snapshot of every cut it reaches, and reports
// whether p holds more for it. final says p is the sealed trace: walked
// to its end, w is done and drops its timing state.
func (w *classWalk) advance(t *Trace, p *published, final bool, budget int) (more bool) {
	if w.done {
		return false
	}
	w.compile(t, p, w.l, w.elide)
	limit := len(p.seq)
	if budget > 0 {
		limit = min(limit, w.seq+budget)
	}
	for {
		cutAt := len(p.seq)
		if w.cut < len(p.cuts) {
			cutAt = p.cuts[w.cut].seq
		}
		if end := min(cutAt, limit); end > w.seq {
			if !w.tm.walk(w.ops, w.start, w.warm, p.seq[w.seq:end], p.addrs) {
				w.finish(false)
				return false
			}
			w.seq = end
		}
		if w.cut == len(p.cuts) || w.seq != cutAt {
			break
		}
		cut := &p.cuts[w.cut]
		if w.tm.ai != cut.addrs {
			panic(fmt.Sprintf("cpu: trace address stream out of step at cut %d: %d != %d", w.cut, w.tm.ai, cut.addrs))
		}
		w.snaps = append(w.snaps, w.tm.snapshot(cut))
		w.cut++
	}
	if w.seq < len(p.seq) {
		return true
	}
	if final {
		w.finish(true)
	}
	return false
}

// finish ends the walk with outcome ok and drops its timing state.
func (w *classWalk) finish(ok bool) {
	w.ok, w.done = ok, true
	if !ok {
		w.snaps = nil
	}
	w.tm, w.opLists = nil, opLists{}
}

// opLists are a walk's compiled runs: ops holds every run's op lists, and
// start[id] is the list the next execution of run id takes, warm[id] the
// one after it.
type opLists struct {
	ops         []timeOp
	start, warm []uint32
}

// compile compiles the runs of p not compiled yet with the latencies l.
// elide says the icache holds the text, so a run's later executions take
// its warm list, which skips the fetch probes.
func (o *opLists) compile(t *Trace, p *published, l latencies, elide bool) {
	for id := len(o.start); id < len(p.runs); id++ {
		run := &p.runs[id]
		o.start = append(o.start, uint32(len(o.ops)))
		o.ops = t.compileRun(o.ops, run, p.flags, l, false)
		if elide {
			o.warm = append(o.warm, uint32(len(o.ops)))
			o.ops = t.compileRun(o.ops, run, p.flags, l, true)
		} else {
			o.warm = append(o.warm, o.start[id]) // every execution probes every fetch
		}
	}
}

// followStep is how many runs Follow walks one class on before it turns
// to the next, so that every class keeps close behind the recording and
// Follow notices the seal soon.
const followStep = 8192

// Follow walks, behind the recording, the timing classes of those cfgs
// that differ from the recording configuration in the dcache alone, one
// walk per distinct dcache: their class is the whole dcache, known before
// the recording ends, and on a benchmark they are most of the walking.
// It returns once the trace is sealed or ctx is done, with the number of
// walks it started; the seal files them under their classes, and the
// first Time of each class finishes its walk. Follow returns 0 at once
// when the trace is already sealed or another Follow started them.
func (t *Trace) Follow(ctx context.Context, cfgs []config.Config) int {
	walks := t.startEarly(cfgs)
	if len(walks) == 0 {
		return 0
	}
	for {
		t.pubMu.Lock()
		p, next := t.pub, t.next
		t.pubMu.Unlock()
		more := false
		for _, w := range walks {
			select {
			case <-t.sealed:
				return len(walks)
			default:
			}
			w.mu.Lock()
			if w.advance(t, &p, false, followStep) {
				more = true
			}
			w.mu.Unlock()
		}
		if more {
			if ctx.Err() != nil {
				return len(walks)
			}
			continue
		}
		select {
		case <-next:
		case <-ctx.Done():
			return len(walks)
		}
	}
}

// startEarly starts the walks Follow makes for cfgs, unless the trace is
// sealed or has them already.
func (t *Trace) startEarly(cfgs []config.Config) []*classWalk {
	base := t.cfg.TimingKey()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.filed || len(t.early) > 0 {
		return nil
	}
	seen := map[config.CacheConfig]bool{base.DCache: true}
	for _, cfg := range cfgs {
		k := cfg.TimingKey()
		dc := k.DCache
		k.DCache = base.DCache
		if k != base || seen[dc] || cfg.Validate() != nil {
			continue
		}
		seen[dc] = true
		t.early = append(t.early, t.newWalk(cfg, t.textFits(cfg.ICache)))
	}
	return t.early
}

// Replay is a walk of a sealed trace whose configuration may change at any
// cut, timing a reconfiguring run (DESIGN.md §19) as AdoptArchState makes
// it: at a switch the caches and the write buffer come up cold, the
// cycles continue and the switch itself costs nothing, and the resident
// windows carry over when the window count stays and flush down to one
// when it changes. The flush writes memory straight, without cycles or
// cache traffic, so it moves no timing; a trace that could observe the
// flushed words is window-sensitive and declines the other window count.
type Replay struct {
	t  *Trace
	tm *timer
	opLists
	seq, cut int // next run-sequence position and cut
	// charges corrects the IU latency charges timer.snapshot makes at the
	// current latencies for the stretches before the last switch, which
	// ran at others.
	charges profiler.Stats
	why     string
}

// Replay starts a replay walk of the trace on cfg, once it is sealed. It
// returns the reason when the trace declines cfg (declineReason).
func (t *Trace) Replay(cfg config.Config) (*Replay, string) {
	<-t.sealed
	if why := t.declineReason(cfg); why != "" {
		return nil, why
	}
	r := &Replay{t: t, tm: t.newTimer(cfg)}
	r.compile(t, &t.published, r.tm.l, t.icacheHoldsText(cfg.ICache))
	return r, ""
}

// Cuts returns the number of cuts of the sealed trace: one per step of
// the recording run (Run, RunFor).
func (t *Trace) Cuts() int {
	<-t.sealed
	return len(t.cuts)
}

// Next walks on to the next cut and returns its snapshot: the profile
// since the start of the run, each stretch charged at the latencies it
// ran under, and the cache counters since the last switch. It returns
// false past the last cut, or when the walk declines a window trap outside
// RAM (Declined says so).
func (r *Replay) Next() (Snapshot, bool) {
	t := r.t
	if r.why != "" || r.cut == len(t.cuts) {
		return Snapshot{}, false
	}
	cut := &t.cuts[r.cut]
	if !r.tm.walk(r.ops, r.start, r.warm, t.seq[r.seq:cut.seq], t.addrs) {
		r.why = "window trap outside RAM"
		return Snapshot{}, false
	}
	r.seq = cut.seq
	r.cut++
	s := r.tm.snapshot(cut)
	s.Stats.Add(r.charges)
	return s, true
}

// Switch reconfigures the walk to cfg at the cut Next last returned, and
// reports whether the trace stands in for the rest of the run on cfg:
// it does not when it declines cfg, or when a window the switch flushes
// lies outside RAM (Declined says why).
func (r *Replay) Switch(cfg config.Config) bool {
	t, tm := r.t, r.tm
	if r.why = t.declineReason(cfg); r.why != "" {
		return false
	}
	l := latenciesOf(cfg)
	if r.cut > 0 {
		cut := &t.cuts[r.cut-1]
		was, now := cut.rec.Stats, cut.rec.Stats
		tm.l.charge(&was, cut)
		l.charge(&now, cut)
		r.charges.Add(was.Sub(now))
	}
	if l.windows != tm.l.windows {
		for d := tm.depth - (tm.resid - 1); d < tm.depth; d++ {
			if !tm.frameOK(tm.frames[d]) {
				r.why = "window flush outside RAM"
				return false
			}
		}
		tm.resid = 1
	}
	cold := t.newTimer(cfg)
	tm.l, tm.ic, tm.dc, tm.wb, tm.icHits = l, cold.ic, cold.dc, cold.wb, 0
	r.opLists = opLists{ops: r.ops[:0], start: r.start[:0], warm: r.warm[:0]}
	r.compile(t, &t.published, l, t.icacheHoldsText(cfg.ICache))
	return true
}

// Declined says why the walk stopped standing in for the run, or returns
// "" while it still does.
func (r *Replay) Declined() string { return r.why }

// walk times the runs of seq in order. start[id] is the op list the
// next execution of run id takes; after it the run switches to warm[id].
// The hot state lives in locals; a direct-mapped dcache (the LEON
// default) is probed inline through its tag store, with its counters
// credited in bulk when the walk ends.
func (tm *timer) walk(ops []timeOp, start, warm []uint32, seq []int32, addrs []uint32) bool {
	l := &tm.l
	ic, dc, wb := tm.ic, tm.dc, &tm.wb
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
				} else if dc.ReadHit(a) {
					continue
				} else {
					dc.ReadMiss(a)
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
	st := cut.rec.Stats
	st.Cycles = tm.cyc
	st.ICacheStall = tm.icStall
	st.DCacheStall = tm.dcStall
	st.WriteBufStall = tm.wbStall
	st.WindowTrapStall = tm.winStall
	st.WindowOverflows = tm.overflows
	st.WindowUnderflows = tm.underflows
	tm.l.charge(&st, cut)
	ics := tm.ic.Stats()
	ics.ReadAccesses += tm.icHits
	return Snapshot{Stats: st, ICache: ics, DCache: tm.dc.Stats()}
}

// charge sets the IU latency charges of st, the profile at cut: each is an
// event count of the cut times one latency of l (§6). It returns their
// sum, the cycles they add.
func (l *latencies) charge(st *profiler.Stats, cut *traceCut) uint64 {
	st.LoadInterlock = cut.interlocks * l.loadDelay
	st.ICCHoldStall = 0
	if l.iccHold {
		st.ICCHoldStall = cut.iccHolds
	}
	st.MulStall = st.Mults * l.mulExtra
	st.DivStall = st.Divs * l.divExtra
	st.JumpPenalty = st.Jumps * l.jumpExtra
	st.DecodeStall = st.BranchPenalty * l.decodeExtra
	return st.LoadInterlock + st.ICCHoldStall + st.MulStall + st.DivStall + st.JumpPenalty + st.DecodeStall
}
