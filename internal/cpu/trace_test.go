package cpu_test

import (
	"encoding/binary"
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
	c.StopRecording()
	if err != nil {
		t.Fatalf("recording run: %v (pc=%#x)", err, c.PC())
	}
	return tr
}

// timedMatches reports whether tr timed on cfg (when it does not decline)
// equals a fresh full run c of the program on cfg.
func timedMatches(t *testing.T, tr *cpu.Trace, cfg config.Config, c *cpu.Core) (declined bool) {
	t.Helper()
	snaps, ok := tr.Time(cfg)
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
// and cache counter.
func FuzzTraceTiming(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 24, 5, 6, 7, 12, 9, 10, 11}, uint64(0))
	f.Add([]byte{20, 0, 17, 200, 24, 13, 16, 40, 8, 7, 31, 9, 16, 22, 5, 250}, uint64(0x9E3779B97F4A7C15))
	f.Add([]byte{24, 24, 24, 24, 24, 24, 24, 24}, uint64(12345))
	f.Add([]byte{12, 1, 0, 4, 16, 2, 0, 8, 12, 3, 1, 16, 20, 4, 2, 0}, uint64(1<<40+7))
	f.Add([]byte{13, 9, 3, 0, 12, 9, 0, 0, 14, 1, 18, 2}, binary.LittleEndian.Uint64([]byte{3, 1, 4, 1, 5, 9, 2, 6}))
	f.Fuzz(func(t *testing.T, data []byte, bits uint64) {
		prog := fuzzProgram(data)
		cfg := fuzzConfig(bits)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzConfig produced an invalid configuration: %v", err)
		}
		for _, pair := range [][2]config.Config{{config.Default(), cfg}, {cfg, config.Default()}} {
			tr := record(t, buildCore(t, pair[0], prog))
			declined := timedMatches(t, tr, pair[1], buildCore(t, pair[1], prog))
			// The gadgets may write %fp (r30), which makes the trace
			// window-sensitive; nothing else may make it decline.
			if declined && !(tr.WindowSensitive() && pair[0].IU.RegWindows != pair[1].IU.RegWindows) {
				t.Fatalf("trace recorded on %v declined %v", pair[0], pair[1])
			}
		}
	})
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
	if _, ok := tr.Time(windowCfg(32)); ok {
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
	if _, ok := tr.Time(config.Default()); ok {
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
