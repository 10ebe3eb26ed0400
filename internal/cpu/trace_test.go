package cpu_test

import (
	"context"
	"encoding/binary"
	"runtime"
	"strings"
	"sync"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/cpu"
	"liquidarch/internal/isa"
	"liquidarch/internal/mem"
)

// buildAsm assembles src into a fresh 1 MiB memory and returns a core
// ready to run it.
func buildAsm(t *testing.T, cfg config.Config, src string) *cpu.Core {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 20)
	if err := prog.Load(m); err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadText(prog.TextBase, prog.TextWords()); err != nil {
		t.Fatal(err)
	}
	c.Reset(prog.Entry)
	return c
}

// record runs c to completion while recording.
func record(t *testing.T, c *cpu.Core) *cpu.Trace {
	t.Helper()
	tr := c.StartRecording()
	err := c.Run(1 << 22)
	c.StopRecording(err)
	if err != nil {
		t.Fatalf("recording run: %v (pc=%#x)", err, c.PC())
	}
	return tr
}

// recordFollowed is record with Follow walking cfgs behind the recording.
// With hold, the recording stops after its first 64 instructions until
// the follower has walked all of them, so the follower is sure to walk a
// prefix before the seal; hold needs a cfg that Follow walks.
func recordFollowed(t *testing.T, c *cpu.Core, cfgs []config.Config, hold bool) *cpu.Trace {
	t.Helper()
	tr := c.StartRecording()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.Follow(context.Background(), cfgs)
	}()
	var err error
	if hold {
		var halted bool
		if halted, err = c.RunFor(64); err == nil && !halted {
			for !tr.FollowerCaughtUp() {
				runtime.Gosched()
			}
		}
	}
	if err == nil {
		err = c.Run(1 << 22)
	}
	c.StopRecording(err)
	<-done
	if err != nil {
		t.Fatalf("recording run: %v (pc=%#x)", err, c.PC())
	}
	return tr
}

// timedMatches reports whether tr timed on cfg (when it does not decline)
// equals a fresh full run c of the program on cfg.
func timedMatches(t *testing.T, tr *cpu.Trace, cfg config.Config, c *cpu.Core) (declined bool) {
	t.Helper()
	snaps, _, ok := tr.Time(cfg)
	if !ok {
		return true
	}
	if err := c.Run(1 << 22); err != nil {
		t.Fatalf("full run: %v (pc=%#x)", err, c.PC())
	}
	got := snaps[len(snaps)-1]
	want := cpu.Snapshot{Stats: c.Stats(), ICache: c.ICacheStats(), DCache: c.DCacheStats()}
	if got != want {
		t.Errorf("%v: timed profile differs from a full run:\n got %+v\nwant %+v", cfg, got, want)
	}
	return false
}

// fuzzConfig decodes a valid configuration from 8 fuzz bytes, covering
// every timing parameter: both caches' ways, way size, line and policy,
// the window count, multiplier, divider, load delay and the fast
// jump/decode and ICC hold switches.
func fuzzConfig(bits uint64) config.Config {
	take := func(n uint64) int {
		v := int(bits % n)
		bits /= n
		return v
	}
	cacheOf := func() config.CacheConfig {
		c := config.CacheConfig{
			Sets:      1 + take(4),
			SetSizeKB: 1 << take(7),
			LineWords: 4 << take(2),
		}
		switch p := take(3); {
		case p == 1 && c.Sets == 2:
			c.Replacement = config.LRR
		case p >= 1 && c.Sets >= 2:
			c.Replacement = config.LRU
		}
		return c
	}
	cfg := config.Default()
	cfg.ICache = cacheOf()
	cfg.DCache = cacheOf()
	cfg.IU.RegWindows = 8
	if w := take(18); w > 0 {
		cfg.IU.RegWindows = 15 + w
	}
	cfg.IU.Multiplier = config.MultiplierOption(take(7))
	cfg.IU.Divider = config.DividerOption(take(2))
	cfg.IU.LoadDelay = 1 + take(2)
	cfg.IU.FastJump = take(2) == 1
	cfg.IU.FastDecode = take(2) == 1
	cfg.IU.ICCHold = take(2) == 1
	return cfg
}

// FuzzTraceTiming records a gadget program on one configuration and times
// it on another decoded from the fuzz input, in both directions: the
// trace must either decline or reproduce a fresh full run's every cycle
// and cache counter. A second recording, publishing every few events as
// the input says, is followed by a walk of the timed configuration's
// dcache on the recording configuration, which must time to the same
// profile as the sealed trace and a full run; the recording waits for the
// follower after its first instructions, so the walk behind it is always
// exercised. The same gadgets run again with a call at the head of every
// trip into a routine that recurses past 8 windows, so that window traps,
// their spill stores and the write buffer meet every timing parameter.
func FuzzTraceTiming(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 24, 5, 6, 7, 12, 9, 10, 11}, uint64(0))
	f.Add([]byte{20, 0, 17, 200, 24, 13, 16, 40, 8, 7, 31, 9, 16, 22, 5, 250}, uint64(0x9E3779B97F4A7C15))
	f.Add([]byte{24, 24, 24, 24, 24, 24, 24, 24}, uint64(12345))
	f.Add([]byte{12, 1, 0, 4, 16, 2, 0, 8, 12, 3, 1, 16, 20, 4, 2, 0}, uint64(1<<40+7))
	f.Add([]byte{13, 9, 3, 0, 12, 9, 0, 0, 14, 1, 18, 2}, binary.LittleEndian.Uint64([]byte{3, 1, 4, 1, 5, 9, 2, 6}))
	f.Fuzz(func(t *testing.T, data []byte, bits uint64) {
		cfg := fuzzConfig(bits)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzConfig produced an invalid configuration: %v", err)
		}
		checkTraceTiming(t, fuzzProgram(data), cfg, bits, false)
		checkTraceTiming(t, fuzzCallProgram(data, 7+int32(bits>>56)%10), cfg, bits, true)
	})
}

// checkTraceTiming is FuzzTraceTiming on one program; deep says the
// program nests more frames than 8 windows hold.
func checkTraceTiming(t *testing.T, prog []isa.Instr, cfg config.Config, bits uint64, deep bool) {
	t.Helper()
	for _, pair := range [][2]config.Config{{config.Default(), cfg}, {cfg, config.Default()}} {
		rec := pair[0]
		tr := record(t, buildCore(t, rec, prog))
		if deep && rec.IU.RegWindows == 8 {
			if snaps, _, ok := tr.Time(rec); ok && snaps[len(snaps)-1].Stats.WindowOverflows == 0 {
				t.Fatal("the recursion did not overflow 8 windows")
			}
		}
		// Two more configurations through the same trace put the class
		// memo under the fuzzer: one decoded from the high bits on the
		// timed configuration's caches, which often lands in an already
		// walked class, and one with another window count, which without
		// a SAVE in the program is in the recording's own, seeded class.
		more := fuzzConfig(bits >> 32)
		more.ICache, more.DCache = pair[1].ICache, pair[1].DCache
		seeded := rec
		seeded.IU.RegWindows = 32
		if rec.IU.RegWindows == 32 {
			seeded.IU.RegWindows = 8
		}
		if k, ok := tr.Class(seeded); ok && !deep {
			if want, _ := tr.Class(rec); k != want {
				t.Fatalf("%v is not in the class of the recording %v", seeded, rec)
			}
		}
		for _, cfg := range []config.Config{pair[1], more, seeded} {
			declined := timedMatches(t, tr, cfg, buildCore(t, cfg, prog))
			// The gadgets may write %fp (r30), which makes the trace
			// window-sensitive; nothing else may make it decline.
			if declined && !(tr.WindowSensitive() && rec.IU.RegWindows != cfg.IU.RegWindows) {
				t.Fatalf("trace recorded on %v declined %v", rec, cfg)
			}
		}
		followed := rec
		followed.DCache = pair[1].DCache
		prev := cpu.SetRecordChunk(1 + int(bits>>58))
		hold := followed.TimingKey() != rec.TimingKey()
		ftr := recordFollowed(t, buildCore(t, rec, prog), []config.Config{followed}, hold)
		cpu.SetRecordChunk(prev)
		if timedMatches(t, ftr, followed, buildCore(t, followed, prog)) {
			t.Fatalf("followed trace declined %v", followed)
		}
		// A held recording has one more cut, at its 64th instruction.
		want, _, _ := tr.Time(followed)
		if got, _, _ := ftr.Time(followed); got[len(got)-1] != want[len(want)-1] {
			t.Fatalf("%v: followed walk differs from the sealed trace's:\n got %+v\nwant %+v", followed, got, want)
		}
	}
}

// fuzzCallProgram is fuzzProgram with a call at the head of every trip
// into a routine that recurses depth frames deep and stores right after
// each SAVE: on 8 windows every trip overflows and underflows, and the
// first store after a spill meets the write buffer. Each trip first
// restores %sp from %g5, since the gadgets may overwrite it.
func fuzzCallProgram(data []byte, depth int32) []isa.Instr {
	prog := set32(6, fuzzScratch)
	prog = append(prog,
		aluImm(isa.OpAdd, 7, 0, 24),        // %g7 = trip count
		aluImm(isa.OpAdd, 5, isa.RegSP, 0)) // %g5 = the initial %sp
	for i := uint8(8); i < 12; i++ {
		prog = append(prog, isa.Instr{Op: isa.OpSethi, Rd: i, Imm: int32(i) * 0x1234})
	}
	loopHead := len(prog)
	call := loopHead + 2
	prog = append(prog,
		aluImm(isa.OpAdd, isa.RegSP, 5, 0), // mov %g5, %sp
		aluImm(isa.OpAdd, 8, 0, depth),     // mov depth, %o0
		isa.Instr{Op: isa.OpCall},          // call down, below
		nop())
	for i := 0; i+4 <= len(data) && i < 32*4; i += 4 {
		prog = append(prog, fuzzGadget(data[i], data[i+1], data[i+2], data[i+3])...)
	}
	prog = append(prog,
		aluImm(isa.OpSubCC, 7, 7, 1),
		isa.Instr{Op: isa.OpBicc, Cond: isa.CondNE, Disp: int32(loopHead) - int32(len(prog)+1)},
		nop(),
		halt())
	down := len(prog)
	prog[call].Disp = int32(down - call)
	return append(prog,
		isa.Instr{Op: isa.OpSave, Rd: isa.RegSP, Rs1: isa.RegSP, UseImm: true, Imm: -96},
		isa.Instr{Op: isa.OpSt, Rd: 24, Rs1: isa.RegSP, UseImm: true, Imm: 68}, // st %i0, [%sp+68]
		aluImm(isa.OpSubCC, 8, 24, 1),                        // subcc %i0, 1, %o0
		isa.Instr{Op: isa.OpBicc, Cond: isa.CondLE, Disp: 4}, // ble out
		nop(),
		isa.Instr{Op: isa.OpCall, Disp: -5}, // call down
		nop(),
		isa.Instr{Op: isa.OpJmpl, Rs1: isa.RegI7, UseImm: true, Imm: 8}, // out: ret
		isa.Instr{Op: isa.OpRestore})
}

// TestTraceClassRules covers every timing-class rule on a program with
// exactly one kind of latency event. Each configuration changes one
// parameter of the base and must time to a fresh full run, so a rule that
// merges a parameter it should not fails here; the walk count pins which
// configurations each program's trace proves identical to the base. The
// IU latencies are charged in closed form and walk nothing, so every
// trace walks only the 4-word icache line and dcache line classes, since
// a line length changes the cold misses. Each program also runs in three
// variants that put the write buffer next to its event: back-to-back
// stores around it, a store right after a load-use, and a recursion that
// spills and fills at 8 windows (with a store right after each SAVE),
// which walks one more class for the window counts that never trap.
func TestTraceClassRules(t *testing.T) {
	var cfgs []config.Config
	with := func(change func(*config.Config)) {
		cfg := config.Default()
		change(&cfg)
		cfgs = append(cfgs, cfg)
	}
	for m := config.MulNone; m <= config.Mul32x32; m++ {
		with(func(c *config.Config) { c.IU.Multiplier = m })
	}
	with(func(c *config.Config) { c.IU.Divider = config.DivNone })
	with(func(c *config.Config) { c.IU.LoadDelay = 2 })
	with(func(c *config.Config) { c.IU.FastJump = false })
	with(func(c *config.Config) { c.IU.FastDecode = false })
	with(func(c *config.Config) { c.IU.ICCHold = false })
	for _, w := range []int{16, 24, 32} {
		with(func(c *config.Config) { c.IU.RegWindows = w })
	}
	with(func(c *config.Config) { c.ICache.SetSizeKB = 1 })
	with(func(c *config.Config) { c.ICache.LineWords = 4 })
	with(func(c *config.Config) { c.DCache.LineWords = 4 })
	const stores = "st %g0, [%sp-16]\n st %g0, [%sp-12]\n"
	const loadUse = "ld [%sp-8], %o3\n st %o3, [%sp-16]\n"
	variants := []struct {
		name, pre, post string
		walks           int
	}{
		{"plain", "", "", 2},
		{"stores", stores, stores, 2},
		{"loaduse", loadUse, loadUse, 2},
		{"recursion", "mov 10, %o0\n call down\n nop\n", "", 3},
	}
	const down = `
down:   save    %sp, -96, %sp
        st      %i0, [%sp+68]
        cmp     %i0, 0
        be      out
        nop
        call    down
        sub     %i0, 1, %o0
out:    ret
        restore
`
	for _, tc := range []struct{ name, src string }{
		{"mul", "mov 7, %o0\n umul %o0, %o0, %o1\n halt"},
		{"div", "mov 100, %o0\n udiv %o0, 7, %o1\n halt"},
		{"jmpl", "set to, %g1\n jmp %g1\n nop\nto: halt"},
		{"call", "call to\n nop\nto: halt"},
		{"taken", "ba to\n nop\nto: halt"},
		{"interlock", "ld [%sp-8], %o0\n add %o0, 1, %o1\n halt"},
		{"icchold", "subcc %g0, 1, %g0\n be to\n nop\nto: halt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range variants {
				src := v.pre + strings.Replace(tc.src, "halt", v.post+"halt", 1)
				if v.name == "recursion" {
					src += down
				}
				t.Run(v.name, func(t *testing.T) {
					tr := record(t, buildAsm(t, config.Default(), src))
					for _, cfg := range cfgs {
						if timedMatches(t, tr, cfg, buildAsm(t, cfg, src)) {
							t.Errorf("%v declined", cfg)
						}
					}
					if got := tr.Walks(); got != v.walks {
						t.Errorf("%d walks over %d configurations, want %d", got, len(cfgs), v.walks)
					}
				})
			}
		})
	}
}

// TestStoreGapPremise pins the premise of the closed-form latency rule
// (TimingClass, DESIGN.md §22): mem's WriteCycles is at most one more
// than a store's static cycles, so a store with any instruction between
// it and the previous one never waits for the write buffer, and only
// back-to-back stores can. Should the write buffer slow down, a latency
// charged between two stores could move a stall, and the IU latencies
// would have to rejoin the timing class.
func TestStoreGapPremise(t *testing.T) {
	stall := func(body string) uint64 {
		src := "set 0x40010000, %g6\n mov 20, %g7\nloop: " + body +
			"\n subcc %g7, 1, %g7\n bne loop\n nop\n halt"
		c := buildAsm(t, config.Default(), src)
		run(t, c)
		return c.Stats().WriteBufStall
	}
	if got := stall("st %g0, [%g6]\n nop\n st %g0, [%g6+4]"); got != 0 {
		t.Errorf("stores one instruction apart waited %d cycles on the write buffer; the closed-form latency rule no longer holds", got)
	}
	if got := stall("st %g0, [%g6]\n st %g0, [%g6+4]"); got == 0 {
		t.Error("back-to-back stores never waited on the write buffer; the premise is no longer exercised")
	}
}

// spillReaderSource recurses 25 deep and, after each return, adds the
// word at [%sp+0] (the first word of the frame's own save area) into %g2,
// which the program leaves in %o1. With few windows the frames were
// spilled and refilled, so the word holds the frame's %l0; with enough
// windows nothing was ever spilled and it reads 0.
const spillReaderSource = `
start:  mov     25, %o0
        clr     %g2
        call    down
        nop
        mov     %g2, %o1
        halt
down:   save    %sp, -96, %sp
        mov     %i0, %l0
        cmp     %i0, 0
        be      out
        nop
        sub     %i0, 1, %o0
        call    down
        nop
        ld      [%sp+0], %l1
        add     %g2, %l1, %g2
out:    ret
        restore
`

// TestTraceGuardsSaveAreaReads is the mutation check of the save-area
// guard: a program that reads its own save area observes the window
// count, so its trace must be window-sensitive and decline other window
// counts, while still timing its own window count exactly.
func TestTraceGuardsSaveAreaReads(t *testing.T) {
	out := func(windows int) uint32 {
		c := buildAsm(t, windowCfg(windows), spillReaderSource)
		run(t, c)
		return c.Reg(9)
	}
	o8, o32 := out(8), out(32)
	if o8 == o32 {
		t.Fatalf("%%o1 = %#x at both 8 and 32 windows; the program no longer observes spills", o8)
	}
	tr := record(t, buildAsm(t, windowCfg(8), spillReaderSource))
	if !tr.WindowSensitive() {
		t.Fatal("a program reading its save area is not flagged window-sensitive")
	}
	if _, _, ok := tr.Time(windowCfg(32)); ok {
		t.Error("window-sensitive trace timed a 32-window configuration")
	}
	same := windowCfg(8)
	same.DCache = config.CacheConfig{Sets: 2, SetSizeKB: 1, LineWords: 4, Replacement: config.LRU}
	if timedMatches(t, tr, same, buildAsm(t, same, spillReaderSource)) {
		t.Error("window-sensitive trace declined its own window count")
	}
}

// fpWriterSource recurses like spillReaderSource but moves every caller's
// %sp 2 KB down through %fp, so spills and fills land where no recorded
// SAVE put them.
const fpWriterSource = `
start:  mov     25, %o0
        call    down
        nop
        halt
down:   save    %sp, -96, %sp
        add     %fp, -2048, %fp
        cmp     %i0, 0
        be      out
        nop
        sub     %i0, 1, %o0
        call    down
        nop
out:    ret
        restore
`

// TestTraceGuardsFPWrites: a write to %fp rewrites the caller's %sp, the
// address its window spills to, so the trace must be window-sensitive;
// every window count is then either declined or timed exactly.
func TestTraceGuardsFPWrites(t *testing.T) {
	tr := record(t, buildAsm(t, windowCfg(8), fpWriterSource))
	if !tr.WindowSensitive() {
		t.Fatalf("a program writing %%fp is not flagged window-sensitive")
	}
	for _, windows := range []int{8, 16, 24, 32} {
		cfg := windowCfg(windows)
		declined := timedMatches(t, tr, cfg, buildAsm(t, cfg, fpWriterSource))
		if declined != (windows != 8) {
			t.Errorf("%d windows: declined = %v", windows, declined)
		}
	}
}

// TestTraceUnusableBelowInitialFrame: a RESTORE in the initial frame
// fills a window no SAVE created; the trace declines everything.
func TestTraceUnusableBelowInitialFrame(t *testing.T) {
	prog := []isa.Instr{aluImm(isa.OpAdd, isa.RegFP, isa.RegSP, -64), {Op: isa.OpRestore}, halt()}
	tr := record(t, buildCore(t, config.Default(), prog))
	if _, _, ok := tr.Time(config.Default()); ok {
		t.Error("trace with a RESTORE below the initial frame timed a configuration")
	}
}

// largeTextProgram is a loop whose body spans 2 KB of text, more than a
// 1 KB direct-mapped icache holds, with loads, back-to-back stores and an
// annulled branch inside, so the timing pass must probe every fetch.
func largeTextProgram() []isa.Instr {
	prog := set32(6, fuzzScratch)
	prog = append(prog, aluImm(isa.OpAdd, 7, 0, 6))
	head := len(prog)
	for i := 0; i < 512; i++ {
		switch i % 16 {
		case 3:
			prog = append(prog, isa.Instr{Op: isa.OpLd, Rd: 8, Rs1: 6, UseImm: true, Imm: int32(i % 64 * 4)})
		case 4:
			prog = append(prog, alu(isa.OpAdd, 9, 9, 8))
		case 9, 10: // back to back: the second store waits on the write buffer
			prog = append(prog, isa.Instr{Op: isa.OpSt, Rd: 9, Rs1: 6, UseImm: true, Imm: int32(i % 32 * 8)})
		case 12:
			prog = append(prog, aluImm(isa.OpSubCC, 0, 9, 7))
		case 13:
			prog = append(prog, isa.Instr{Op: isa.OpBicc, Cond: isa.CondNE, Annul: true, Disp: 2})
		default:
			prog = append(prog, aluImm(isa.OpAdd, 10, 10, int32(i)))
		}
	}
	prog = append(prog,
		aluImm(isa.OpSubCC, 7, 7, 1),
		isa.Instr{Op: isa.OpBicc, Cond: isa.CondNE, Disp: int32(head) - int32(len(prog)+1)},
		nop(),
		halt())
	return prog
}

// TestTraceTimingLargeText covers the timing pass with icache elision
// off (text larger than a way) and on (text fits).
func TestTraceTimingLargeText(t *testing.T) {
	prog := largeTextProgram()
	tr := record(t, buildCore(t, config.Default(), prog))
	for _, ic := range []config.CacheConfig{
		{Sets: 1, SetSizeKB: 1, LineWords: 8},
		{Sets: 2, SetSizeKB: 1, LineWords: 4, Replacement: config.LRR},
		{Sets: 3, SetSizeKB: 1, LineWords: 8, Replacement: config.LRU},
		{Sets: 1, SetSizeKB: 4, LineWords: 8},
	} {
		cfg := config.Default()
		cfg.ICache = ic
		if timedMatches(t, tr, cfg, buildCore(t, cfg, prog)) {
			t.Errorf("%v declined", cfg)
		}
	}
}

func windowCfg(windows int) config.Config {
	cfg := config.Default()
	cfg.IU.RegWindows = windows
	return cfg
}

// TestReplayWalkMatchesAdoptedRun: a replay walk that switches
// configuration at cuts times, at every cut, exactly what a run handed
// from core to core by AdoptArchState reports: windows flushed across
// window counts, caches and write buffer cold, cycles continuing, each
// stretch charged at its own latencies. Several walks run at once on one
// trace, beside Time.
func TestReplayWalkMatchesAdoptedRun(t *testing.T) {
	prog := fuzzCallProgram([]byte{12, 1, 0, 4, 5, 9, 3, 0, 16, 2, 0, 8, 0, 3, 2, 17}, 11)
	base := config.Default()
	wide := base
	wide.IU.RegWindows = 16
	wide.IU.Multiplier = config.MulNone
	wide.DCache.LineWords = 4
	slow := base
	slow.IU.LoadDelay = 2
	slow.IU.FastDecode = false
	slow.ICache = config.CacheConfig{Sets: 2, SetSizeKB: 1, LineWords: 4, Replacement: config.LRU}
	deep := base
	deep.IU.RegWindows = 32
	deep.DCache = config.CacheConfig{Sets: 2, SetSizeKB: 1, LineWords: 8, Replacement: config.LRR}
	palette := []config.Config{base, wide, wide, slow, base, deep}
	const step = 150

	// The reference: the live run, handed to a fresh core at every change.
	c := buildCore(t, base, prog)
	var want []cpu.Snapshot
	for k := 0; ; k++ {
		halted, err := c.RunFor(step)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, cpu.Snapshot{Stats: c.Stats(), ICache: c.ICacheStats(), DCache: c.DCacheStats()})
		if halted {
			break
		}
		if next := palette[(k+1)%len(palette)]; next != palette[k%len(palette)] {
			nc, err := cpu.New(next, c.Memory())
			if err != nil {
				t.Fatal(err)
			}
			if err := nc.LoadText(textBase, len(prog)); err != nil {
				t.Fatal(err)
			}
			if err := nc.AdoptArchState(c); err != nil {
				t.Fatal(err)
			}
			c = nc
		}
	}
	if len(want) <= len(palette) || want[len(want)-1].Stats.WindowOverflows == 0 {
		t.Fatalf("%d cuts, %d window overflows: the schedule misses a switch", len(want), want[len(want)-1].Stats.WindowOverflows)
	}

	rc := buildCore(t, base, prog)
	tr := rc.StartRecording()
	for {
		halted, err := rc.RunFor(step)
		if err != nil {
			rc.StopRecording(err)
			t.Fatal(err)
		}
		if halted {
			break
		}
	}
	rc.StopRecording(nil)
	if tr.WindowSensitive() || tr.Cuts() != len(want) {
		t.Fatalf("window-sensitive %v, %d cuts for %d steps", tr.WindowSensitive(), tr.Cuts(), len(want))
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Time(palette[1+g%3])
			r, why := tr.Replay(base)
			if why != "" {
				t.Errorf("replay declined: %s", why)
				return
			}
			for k := range want {
				got, ok := r.Next()
				if !ok {
					t.Errorf("cut %d: the walk stopped: %s", k, r.Declined())
					return
				}
				if got != want[k] {
					t.Errorf("cut %d: replay walk differs from the adopted run:\n got %+v\nwant %+v", k, got, want[k])
					return
				}
				if next := palette[(k+1)%len(palette)]; k+1 < len(want) && next != palette[k%len(palette)] && !r.Switch(next) {
					t.Errorf("cut %d: the switch to %v declined: %s", k, next, r.Declined())
					return
				}
			}
			if _, ok := r.Next(); ok {
				t.Error("the walk went on past the last cut")
			}
		}()
	}
	wg.Wait()
}
