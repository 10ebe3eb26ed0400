package cpu_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/cpu"
	"liquidarch/internal/isa"
	"liquidarch/internal/mem"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// A recording core runs the fast loop (superblocks included), which
// writes the trace as it goes. These tests hold its trace to the one the
// reference recorder writes by single-stepping Step (StepRecorder),
// field by field: the run table and flags, the run sequence, the address
// stream, every cut with its snapshot and hazard counts, the fetch set,
// the call depth and the window guards.

// raceBuild is set under the race detector, which slows Step recordings
// of the Small programs to minutes; those tests then stay at Tiny.
var raceBuild bool

// recordSchedule drives a recording core through one run in the steps
// platform.Engine.Run takes: to the halt, to a sample limit, or in
// interval-sized steps to the halt. runFor is RunFor on either recorder.
func recordSchedule(runFor func(uint64) (bool, error), sample, interval uint64) error {
	switch {
	case interval > 0:
		for {
			halted, err := runFor(interval)
			if err != nil || halted {
				return err
			}
		}
	case sample > 0:
		_, err := runFor(sample)
		return err
	default:
		halted, err := runFor(1 << 32)
		if err == nil && !halted {
			err = fmt.Errorf("no halt")
		}
		return err
	}
}

// recordBoth records the program newCore loads once on each recorder and
// fails unless the traces and the cores' final profiles agree.
func recordBoth(t *testing.T, newCore func() *cpu.Core, sample, interval uint64) *cpu.Trace {
	t.Helper()
	fast, ref := newCore(), newCore()
	got := fast.StartRecording()
	err := recordSchedule(fast.RunFor, sample, interval)
	fast.StopRecording(err)
	if err != nil {
		t.Fatalf("fast recording: %v (pc=%#x)", err, fast.PC())
	}
	sr := ref.StartStepRecording()
	err = recordSchedule(sr.RunFor, sample, interval)
	want := sr.Stop()
	if err != nil {
		t.Fatalf("Step recording: %v (pc=%#x)", err, ref.PC())
	}
	if d := cpu.TraceDiff(got, want); d != "" {
		t.Fatalf("fast-loop trace differs from the Step recorder's: %s", d)
	}
	if fast.Stats() != ref.Stats() || fast.ICacheStats() != ref.ICacheStats() || fast.DCacheStats() != ref.DCacheStats() {
		t.Fatalf("recording runs diverge:\nfast: %s\nStep: %s", statsString(fast), statsString(ref))
	}
	return got
}

// benchCore builds a core for a benchmark program the way the platform
// does: default RAM, superblocks armed, block signatures for interval
// runs.
func benchCore(t *testing.T, b *progs.Benchmark, scale workload.Scale, cfg config.Config, interval uint64) func() *cpu.Core {
	prog, err := b.Assemble(scale)
	if err != nil {
		t.Fatal(err)
	}
	return func() *cpu.Core {
		m := mem.New(mem.DefaultRAMBytes)
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
		c.EnableSuperblocks(cpu.DefaultSuperblockThreshold)
		if interval > 0 {
			c.EnableBlockVector(platform.SignatureBuckets, 4)
		}
		c.Reset(prog.Entry)
		return c
	}
}

// TestFastRecordMatchesStep covers every benchmark program at Tiny and
// Small, recorded whole, truncated by a sample limit, and in interval
// steps; the recursion programs at 8 and 32 windows; and the save-area
// and %fp guard programs. The sample limit and the interval length fall
// mid-run, at odd counts, so cuts land inside runs and superblocks.
func TestFastRecordMatchesStep(t *testing.T) {
	scales := []workload.Scale{workload.Tiny, workload.Small}
	if testing.Short() || raceBuild {
		scales = scales[:1]
	}
	for _, b := range progs.All() {
		for _, scale := range scales {
			whole := recordBoth(t, benchCore(t, b, scale, config.Default(), 0), 0, 0)
			n := whole.Instructions()
			for _, mode := range []struct {
				name             string
				sample, interval uint64
			}{
				{"sample", n/2 + 7, 0},
				{"interval", 0, n/9 + 3},
			} {
				t.Run(fmt.Sprintf("%s/%s/%s", b.Name, scale, mode.name), func(t *testing.T) {
					recordBoth(t, benchCore(t, b, scale, config.Default(), mode.interval), mode.sample, mode.interval)
				})
			}
		}
	}
	for _, windows := range []int{8, 32} {
		cfg := windowCfg(windows)
		t.Run(fmt.Sprintf("recursion/%dwin", windows), func(t *testing.T) {
			tr := recordBoth(t, func() *cpu.Core { return buildCore(t, cfg, recursionProgram(25)) }, 0, 0)
			if tr.StepInstructions() == 0 {
				t.Error("the recursion program stepped nothing")
			}
			recordBoth(t, func() *cpu.Core { return buildCore(t, cfg, recursionProgram(25)) }, 0, 97)
		})
		for name, src := range map[string]string{"spill-reader": spillReaderSource, "fp-writer": fpWriterSource} {
			t.Run(fmt.Sprintf("%s/%dwin", name, windows), func(t *testing.T) {
				tr := recordBoth(t, func() *cpu.Core { return buildAsm(t, cfg, src) }, 0, 0)
				if !tr.WindowSensitive() {
					t.Error("trace not window-sensitive")
				}
			})
		}
	}
}

// TestFollowMatchesSealedWalk: walks made behind a recording that
// publishes every few events time every dcache variant of the recording
// configuration, at every cut, exactly as the sealed trace does without
// them. It covers every benchmark program recorded whole, to a sample
// limit and in interval steps, and a recursion program whose window
// traps go through the dcache.
func TestFollowMatchesSealedWalk(t *testing.T) {
	prev := cpu.SetRecordChunk(37)
	defer cpu.SetRecordChunk(prev)
	var cfgs []config.Config
	for _, dc := range []config.CacheConfig{
		{Sets: 1, SetSizeKB: 1, LineWords: 4},
		{Sets: 2, SetSizeKB: 2, LineWords: 8, Replacement: config.LRU},
		{Sets: 2, SetSizeKB: 1, LineWords: 4, Replacement: config.LRR},
		{Sets: 4, SetSizeKB: 1, LineWords: 4},
	} {
		cfg := config.Default()
		cfg.DCache = dc
		cfgs = append(cfgs, cfg)
	}
	record := func(t *testing.T, newCore func() *cpu.Core, sample, interval uint64, follow bool) *cpu.Trace {
		c := newCore()
		tr := c.StartRecording()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if follow {
				tr.Follow(context.Background(), cfgs)
			}
		}()
		err := recordSchedule(c.RunFor, sample, interval)
		c.StopRecording(err)
		<-done
		if err != nil {
			t.Fatalf("recording: %v (pc=%#x)", err, c.PC())
		}
		return tr
	}
	followed := 0
	check := func(t *testing.T, newCore func() *cpu.Core, sample, interval uint64) {
		sealed := record(t, newCore, sample, interval, false)
		tr := record(t, newCore, sample, interval, true)
		followed += tr.Followed()
		for _, cfg := range cfgs {
			want, _, ok := sealed.Time(cfg)
			got, _, gotOK := tr.Time(cfg)
			if !ok || !gotOK || !slices.Equal(got, want) {
				t.Errorf("%v: followed walk differs from the sealed trace's:\n got %+v\nwant %+v", cfg, got, want)
			}
		}
	}
	for _, b := range progs.All() {
		n := tinyInstructions(t, b)
		for _, mode := range []struct {
			name             string
			sample, interval uint64
		}{
			{"whole", 0, 0},
			{"sample", n/2 + 7, 0},
			{"interval", 0, n/9 + 3},
		} {
			t.Run(fmt.Sprintf("%s/%s", b.Name, mode.name), func(t *testing.T) {
				check(t, benchCore(t, b, workload.Tiny, config.Default(), mode.interval), mode.sample, mode.interval)
			})
		}
	}
	t.Run("recursion", func(t *testing.T) {
		check(t, func() *cpu.Core { return buildCore(t, config.Default(), recursionProgram(25)) }, 0, 97)
	})
	if followed == 0 {
		t.Error("no walk was made behind a recording")
	}
}

// tinyInstructions returns the instruction count of b's Tiny run.
func tinyInstructions(t *testing.T, b *progs.Benchmark) uint64 {
	c := benchCore(t, b, workload.Tiny, config.Default(), 0)()
	if err := c.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	return c.Stats().Instructions
}

// TestRecordingStepsOnlyFallbacks: a Small recording of each benchmark
// program executes on Step only the opcodes the fast loop hands over
// (SAVE, RESTORE, Ticc), so a recorder that silently fell back to
// single-stepping would show here.
func TestRecordingStepsOnlyFallbacks(t *testing.T) {
	scale := workload.Small
	if testing.Short() || raceBuild {
		scale = workload.Tiny
	}
	for _, b := range progs.All() {
		c := benchCore(t, b, scale, config.Default(), 0)()
		tr := c.StartRecording()
		err := c.Run(1 << 32)
		c.StopRecording(err)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got, want := tr.StepInstructions(), tr.FallbackInstructions(); got != want || got == 0 {
			t.Errorf("%s: %d instructions recorded through Step, %d fallback opcodes executed", b.Name, got, want)
		}
	}
}

// FuzzFastRecordMatchesStep records fuzz-decoded gadget programs on the
// fast loop, with superblocks compiling after two taken branches, and on
// the Step recorder, cut every few instructions as the input says; the
// traces must agree field by field. The gadgets cover load-use
// interlocks inside and at the edge of superblocks, compare-and-branch
// pairs with every condition and annul bit, stores and the Y register.
func FuzzFastRecordMatchesStep(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 24, 5, 6, 7, 12, 9, 10, 11}, uint16(0))
	f.Add([]byte{20, 0, 17, 200, 24, 13, 16, 40, 8, 7, 31, 9, 16, 22, 5, 250}, uint16(37))
	f.Add([]byte{24, 24, 24, 24, 24, 24, 24, 24}, uint16(5))
	f.Add([]byte{12, 1, 0, 4, 16, 2, 0, 8, 12, 3, 1, 16, 20, 4, 2, 0}, uint16(1))
	f.Add([]byte{13, 9, 3, 0, 12, 9, 0, 0, 14, 1, 18, 2, 5, 8, 6, 30}, uint16(211))
	f.Fuzz(func(t *testing.T, data []byte, every uint16) {
		prog := fuzzProgram(data)
		newCore := func() *cpu.Core {
			c := buildCore(t, config.Default(), prog)
			c.EnableSuperblocks(2)
			return c
		}
		recordBoth(t, newCore, 0, uint64(every))
	})
}

// A program that never halts must fail the same way on both recorders.
func TestRecordInstructionLimit(t *testing.T) {
	prog := []isa.Instr{{Op: isa.OpBicc, Cond: isa.CondA, Disp: 0}, nop()}
	fast, ref := buildCore(t, config.Default(), prog), buildCore(t, config.Default(), prog)
	fast.StartRecording()
	sr := ref.StartStepRecording()
	errFast, errRef := fast.Run(1000), sr.Run(1000)
	fast.StopRecording(errFast)
	sr.Stop()
	if errFast == nil || errRef == nil || errFast.Error() != errRef.Error() {
		t.Fatalf("fast: %v, Step: %v", errFast, errRef)
	}
}
