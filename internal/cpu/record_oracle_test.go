package cpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"

	"liquidarch/internal/isa"
)

// The reference recorder: the all-Step recorder the fast loop replaced,
// kept as the oracle it is held to. It shares no recording code with the
// fast loop's recorder (fast.go, trace.go): it single-steps Step, flags
// each instruction as it retires, extends and closes runs itself and
// interns them under a byte key. The fast loop's recording must equal its
// output field by field (record_test.go, FuzzFastRecordMatchesStep).

// StepRecorder records a core's run on the reference Step path.
type StepRecorder struct {
	c *Core
	t *Trace

	// class holds each text word's recording class (recLoad, recStore,
	// recSave, recRestore, plus recWritesFP), decoded once.
	class []uint8

	// The open run.
	open     bool
	start, n uint32
	cur      []uint8

	last  int32   // id of the last closed run, -1 before the first
	succ  []int32 // id that followed each run last time, -1 if none yet
	index map[string]int32
	key   []byte

	interlocks, iccHolds uint64

	// Window stack: frames[k] is the %sp that the frame at call depth k
	// had when it executed its SAVE. areas are the distinct save-area
	// bases ever recorded (sorted); lo and hi bound them.
	depth  int
	frames []uint32
	areas  []uint32
	lo, hi uint32
}

// StartStepRecording is StartRecording on the reference recorder: the
// returned recorder's RunFor and Run step c and record into a new Trace,
// which Stop seals. Call it after LoadText.
func (c *Core) StartStepRecording() *StepRecorder {
	t := newTrace(c)
	class := make([]uint8, len(c.text))
	for i := range c.text {
		class[i] = recClass(&c.text[i])
	}
	return &StepRecorder{c: c, t: t, class: class, last: -1, index: make(map[string]int32), lo: ^uint32(0)}
}

// Stop seals the trace and returns it.
func (r *StepRecorder) Stop() *Trace {
	r.closeRun(0, false)
	r.t.seal()
	return r.t
}

// RunFor is Core.RunFor on the reference recorder.
func (r *StepRecorder) RunFor(n uint64) (halted bool, err error) {
	c := r.c
	if err := r.recordTo(c.stats.Instructions + n); err != nil {
		return false, err
	}
	return c.halted, nil
}

// Run is Core.Run on the reference recorder.
func (r *StepRecorder) Run(maxInstr uint64) error {
	c := r.c
	if err := r.recordTo(c.stats.Instructions + maxInstr); err != nil {
		return err
	}
	if !c.halted {
		return fmt.Errorf("cpu: instruction limit %d reached at pc %#08x", maxInstr, c.pc)
	}
	return nil
}

// recordTo single-steps the reference path, noting each instruction's
// run, flags and data address, and marks a cut when it stops.
func (r *StepRecorder) recordTo(target uint64) error {
	c, t := r.c, r.t
	for !c.halted && c.stats.Instructions < target {
		pc := c.pc
		idx := (pc - c.textBase) >> 2
		if pc&3 != 0 || uint64(idx) >= uint64(len(c.text)) {
			return c.Step() // reports the fault
		}
		in := &c.text[idx]
		class := r.class[idx]
		var fl uint8
		if c.loadHazardReg != noHazard && c.readsReg(in, c.loadHazardReg) {
			fl |= flagInterlock
			r.interlocks++
		}
		if c.iccJustSet && in.Op == isa.OpBicc {
			fl |= flagICC
			r.iccHolds++
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
		if c.stats.TakenBranches != taken {
			fl |= flagTaken
		}
		r.step(idx, fl)
		if class != 0 {
			switch class & recKind {
			case recLoad, recStore:
				t.addrs = append(t.addrs, addr)
				if n := accessBytes(in.Op); addr+n > r.lo && addr < r.hi {
					r.guard(addr, n)
				}
			case recSave:
				t.addrs = append(t.addrs, addr)
				r.save(addr)
			case recRestore:
				t.addrs = append(t.addrs, addr)
				if r.depth == 0 {
					// Returning past the initial frame fills a window nobody
					// spilled: what it loads depends on the window count.
					t.unusable = true
				} else {
					r.depth--
				}
			}
			if class&recWritesFP != 0 {
				t.windowSensitive = true
			}
		}
		if c.stats.AnnulledSlots != annulled {
			r.closeRun(npc, true)
		}
	}
	r.cut()
	return nil
}

// step appends instruction idx to the open run, or closes it and opens a
// new one when idx does not follow it.
func (r *StepRecorder) step(idx uint32, fl uint8) {
	if r.open && idx == r.start+r.n {
		r.cur = append(r.cur, fl)
		r.n++
		return
	}
	r.closeRun(0, false)
	r.open, r.start, r.n = true, idx, 1
	r.cur = append(r.cur[:0], fl)
}

// closeRun ends the open run, interning it in the run table, and appends
// its id to the sequence.
func (r *StepRecorder) closeRun(annul uint32, hasAnnul bool) {
	if !r.open {
		return
	}
	r.open = false
	t := r.t
	// Loops repeat: the run that followed the previous one last time is
	// the likeliest match, and checking it avoids the map.
	if r.last >= 0 {
		if id := r.succ[r.last]; id >= 0 && r.matches(&t.runs[id], annul, hasAnnul) {
			t.seq = append(t.seq, id)
			r.last = id
			return
		}
	}
	r.key = binary.LittleEndian.AppendUint32(r.key[:0], r.start)
	r.key = binary.LittleEndian.AppendUint32(r.key, r.n)
	if hasAnnul {
		r.key = append(r.key, 1)
		r.key = binary.LittleEndian.AppendUint32(r.key, annul)
	} else {
		r.key = append(r.key, 0)
	}
	r.key = append(r.key, r.cur...)
	id, ok := r.index[string(r.key)]
	if !ok {
		id = int32(len(t.runs))
		t.runs = append(t.runs, traceRun{start: r.start, n: r.n, flagOff: uint32(len(t.flags)), annul: annul, hasAnnul: hasAnnul})
		t.flags = append(t.flags, r.cur...)
		r.succ = append(r.succ, -1)
		r.index[string(r.key)] = id
	}
	if r.last >= 0 {
		r.succ[r.last] = id
	}
	t.seq = append(t.seq, id)
	r.last = id
}

func (r *StepRecorder) matches(run *traceRun, annul uint32, hasAnnul bool) bool {
	return run.start == r.start && run.n == r.n && run.hasAnnul == hasAnnul &&
		(!hasAnnul || run.annul == annul) &&
		bytes.Equal(r.t.flags[run.flagOff:run.flagOff+run.n], r.cur)
}

// cut closes the open run and marks the end of a recording step.
func (r *StepRecorder) cut() {
	c := r.c
	r.closeRun(0, false)
	r.t.cuts = append(r.t.cuts, traceCut{
		seq:        len(r.t.seq),
		addrs:      len(r.t.addrs),
		rec:        Snapshot{Stats: c.stats, ICache: c.icache.Stats(), DCache: c.dcache.Stats()},
		interlocks: r.interlocks,
		iccHolds:   r.iccHolds,
	})
}

// save notes a SAVE executed with %sp == sp: the frame at the current
// depth may from now on be spilled to the save area at sp.
func (r *StepRecorder) save(sp uint32) {
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

// guard flags the trace window-sensitive when a program access of n bytes
// at addr overlaps a save area some window spill may have written.
func (r *StepRecorder) guard(addr, n uint32) {
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

// TraceDiff names the first field in which two recordings differ, or
// returns "" when they are equal. It compares everything Time reads and
// the class memo is seeded from; StepInstructions, a diagnostic, may
// differ.
func TraceDiff(a, b *Trace) string {
	type field struct {
		name string
		x, y any
	}
	for _, f := range []field{
		{"text", a.text, b.text},
		{"textBase", a.textBase, b.textBase},
		{"ramBytes", a.ramBytes, b.ramBytes},
		{"cfg", a.cfg, b.cfg},
		{"maxDepth", a.maxDepth, b.maxDepth},
		{"windowSensitive", a.windowSensitive, b.windowSensitive},
		{"unusable", a.unusable, b.unusable},
		{"runs", a.runs, b.runs},
		{"flags", a.flags, b.flags},
		{"seq", a.seq, b.seq},
		{"addrs", a.addrs, b.addrs},
		{"cuts", a.cuts, b.cuts},
		{"fetched", a.fetched, b.fetched},
	} {
		if reflect.DeepEqual(f.x, f.y) {
			continue
		}
		if x, y := reflect.ValueOf(f.x), reflect.ValueOf(f.y); x.Kind() == reflect.Slice {
			for i := 0; i < min(x.Len(), y.Len()); i++ {
				if !reflect.DeepEqual(x.Index(i).Interface(), y.Index(i).Interface()) {
					return fmt.Sprintf("%s[%d]: %+v != %+v (lengths %d, %d)", f.name, i, x.Index(i), y.Index(i), x.Len(), y.Len())
				}
			}
			if x.Len() == y.Len() {
				continue // nil and empty
			}
			return fmt.Sprintf("%s: lengths %d != %d", f.name, x.Len(), y.Len())
		}
		return fmt.Sprintf("%s: %+v != %+v", f.name, f.x, f.y)
	}
	return ""
}

// FallbackInstructions counts the executed instructions of the trace
// whose opcodes the fast loop hands to Step.
func (t *Trace) FallbackInstructions() uint64 {
	var n uint64
	for _, id := range t.seq {
		run := t.runs[id]
		for i := run.start; i < run.start+run.n; i++ {
			if fastCode(t.text[i].Op) == fFallback {
				n++
			}
		}
	}
	return n
}

// Instructions returns the number of instructions the recording retired.
func (t *Trace) Instructions() uint64 {
	if len(t.cuts) == 0 {
		return 0
	}
	return t.cuts[len(t.cuts)-1].rec.Stats.Instructions
}
