package platform_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/cache"
	"liquidarch/internal/config"
	"liquidarch/internal/platform"
	"liquidarch/internal/profiler"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// assembleApp returns one assembled instance of a registry benchmark.
func assembleApp(t *testing.T, app string, scale workload.Scale) *asm.Program {
	t.Helper()
	b, ok := progs.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	prog, err := b.Assemble(scale)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// sumSegments folds a replay report's per-segment deltas back together.
func sumSegments(rep *platform.ReplayReport) (profiler.Stats, cache.Stats, cache.Stats) {
	var st profiler.Stats
	var ic, dc cache.Stats
	for _, seg := range rep.Segments {
		st.Add(seg.Stats)
		ic.Add(seg.ICache)
		dc.Add(seg.DCache)
	}
	return st, ic, dc
}

// checkSegmentSums asserts the concatenation property: the whole-run
// stats equal the field-wise sum of the per-segment deltas, and the
// segments tile the interval range without gaps.
func checkSegmentSums(t *testing.T, rep *platform.ReplayReport) {
	t.Helper()
	st, ic, dc := sumSegments(rep)
	if st != rep.Stats {
		t.Errorf("segment stats sum %+v != whole-run stats %+v", st, rep.Stats)
	}
	if ic != rep.ICache || dc != rep.DCache {
		t.Errorf("segment cache sums diverge from whole-run totals")
	}
	next := 0
	for _, seg := range rep.Segments {
		if seg.Start != next || seg.End < seg.Start {
			t.Fatalf("segment %d spans [%d,%d], expected start %d", seg.Index, seg.Start, seg.End, next)
		}
		next = seg.End + 1
	}
	if next != rep.Intervals {
		t.Errorf("segments cover %d intervals, report says %d", next, rep.Intervals)
	}
}

// recordFor records prog under opts on the base configuration, or returns
// nil when the recording run fails.
func recordFor(t *testing.T, prog *asm.Program, opts platform.Options) *platform.Trace {
	t.Helper()
	tr, _, err := platform.Record(prog, config.Default(), opts, nil)
	if err != nil {
		return nil
	}
	return tr
}

// sameReplay fails the test unless the replay timed from a trace, which
// must not have declined, is byte-identical to the full replay.
func sameReplay(t *testing.T, name string, full, timed *platform.ReplayReport, declined string) {
	t.Helper()
	if declined != "" {
		t.Fatalf("%s: the trace declined the replay: %s", name, declined)
	}
	want, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(timed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: replay timed from the trace differs from the full replay:\n got %s\nwant %s", name, got, want)
	}
}

// replaySchedule runs the schedule in full and timed from a recording,
// and fails the test unless both answer byte for byte the same. It
// returns the full replay's outcome.
func replaySchedule(t *testing.T, prog *asm.Program, steps []platform.ReplayStep, opts platform.Options) (*platform.ReplayReport, error) {
	t.Helper()
	rep, err := platform.ReplaySchedule(prog, steps, opts)
	tr := recordFor(t, prog, opts)
	if tr == nil {
		if err == nil {
			t.Errorf("the recording failed where the replay did not")
		}
		return rep, err
	}
	timed, declined, terr := tr.ReplaySchedule(steps)
	if (err == nil) != (terr == nil) {
		t.Fatalf("full replay error %v, timed replay error %v", err, terr)
	}
	if err == nil {
		sameReplay(t, "schedule", rep, timed, declined)
	}
	return rep, err
}

// replayOnline is replaySchedule for an online run; decider returns a
// fresh decision function for each of the two runs.
func replayOnline(t *testing.T, prog *asm.Program, first config.Config, decider func() func(int, platform.Interval) config.Config, opts platform.Options) *platform.ReplayReport {
	t.Helper()
	rep, err := platform.ReplayOnline(prog, first, decider(), opts)
	if err != nil {
		t.Fatal(err)
	}
	timed, declined := recordFor(t, prog, opts).ReplayOnline(first, decider())
	sameReplay(t, "online", rep, timed, declined)
	return rep
}

// TestReplaySameConfigEquivalence: a replay whose every step names the
// same configuration performs no reconfiguration, so its outcome must
// be byte-identical to a plain interval-profiled run — the anchor that
// pins replay stepping to the production interval loop. The inputs cover
// one segment per interval, a sample limit that ends mid-interval and a
// runaway limit, which must fail on both paths. Every replay also runs
// timed from a recording, which must answer byte for byte the same.
func TestReplaySameConfigEquivalence(t *testing.T) {
	prog := assembleApp(t, "arith", workload.Tiny)
	cfg := config.Default()
	opts := platform.Options{IntervalInstructions: 5_000}
	plain, err := platform.RunWith(prog, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	perInterval := make([]platform.ReplayStep, len(plain.Intervals))
	for i := range perInterval {
		perInterval[i] = platform.ReplayStep{Config: cfg, Intervals: 1}
	}
	perInterval[len(perInterval)-1].Intervals = -1
	sampled := opts
	sampled.SampleInstructions = 3*opts.IntervalInstructions + 1_234
	runaway := opts
	runaway.MaxInstructions = plain.Stats.Instructions / 2

	for _, tc := range []struct {
		name  string
		steps []platform.ReplayStep
		opts  platform.Options
		fails bool
	}{
		{"one step", []platform.ReplayStep{{Config: cfg, Intervals: -1}}, opts, false},
		{"three steps", []platform.ReplayStep{{Config: cfg, Intervals: 2}, {Config: cfg, Intervals: 1}, {Config: cfg, Intervals: -1}}, opts, false},
		{"step per interval", perInterval, opts, false},
		{"sample mid-interval", []platform.ReplayStep{{Config: cfg, Intervals: 2}, {Config: cfg, Intervals: -1}}, sampled, false},
		{"runaway", []platform.ReplayStep{{Config: cfg, Intervals: -1}}, runaway, true},
	} {
		want, wantErr := platform.RunWith(prog, cfg, tc.opts)
		rep, err := replaySchedule(t, prog, tc.steps, tc.opts)
		if tc.fails {
			if wantErr == nil || err == nil {
				t.Errorf("%s: plain run error %v, replay error %v; want both to fail", tc.name, wantErr, err)
			}
			continue
		}
		if wantErr != nil || err != nil {
			t.Fatalf("%s: plain run error %v, replay error %v", tc.name, wantErr, err)
		}
		if tc.opts.SampleInstructions > 0 && !rep.Sampled {
			t.Errorf("%s: the sample limit did not truncate the run", tc.name)
		}
		if rep.Switches != 0 {
			t.Errorf("%s: same-config replay performed %d switches", tc.name, rep.Switches)
		}
		if rep.Stats != want.Stats || rep.ICache != want.ICache || rep.DCache != want.DCache {
			t.Errorf("%s: same-config replay diverged from plain run:\nreplay %+v\nplain  %+v", tc.name, rep.Stats, want.Stats)
		}
		if rep.ExitCode != want.ExitCode || rep.Checksum != want.Checksum || rep.Console != want.Console || rep.Sampled != want.Sampled {
			t.Errorf("%s: same-config replay architectural results diverged", tc.name)
		}
		if rep.Intervals != len(want.Intervals) {
			t.Errorf("%s: replay saw %d intervals, plain run %d", tc.name, rep.Intervals, len(want.Intervals))
		}
		if len(tc.steps) > 1 && len(rep.Segments) != len(tc.steps) {
			t.Errorf("%s: expected %d segments (one per step), got %d", tc.name, len(tc.steps), len(rep.Segments))
		}
		checkSegmentSums(t, rep)
	}
	rep, err := replaySchedule(t, prog, perInterval, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range rep.Segments {
		iv := plain.Intervals[i]
		if seg.Start != i || seg.End != i || seg.Instructions != iv.Instructions ||
			seg.Stats != iv.Stats || seg.ICache != iv.ICache || seg.DCache != iv.DCache {
			t.Errorf("segment %d diverged from plain interval %d:\nsegment %+v\ninterval %+v", i, i, seg, iv)
		}
	}
}

// TestReplayCrossConfig reconfigures mid-run — register windows and
// dcache geometry both change — and checks the invariants that survive
// a reconfiguration: the architectural results and instruction count
// match any single-configuration run, and the per-segment decomposition
// tiles the totals exactly.
func TestReplayCrossConfig(t *testing.T) {
	prog := assembleApp(t, "mix", workload.Tiny)
	cfgA := config.Default()
	cfgB := config.Default()
	cfgB.IU.RegWindows = 16
	cfgB.DCache.LineWords = 8
	if err := cfgB.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := platform.Options{IntervalInstructions: 20_000}
	plain, err := platform.RunWith(prog, cfgA, opts)
	if err != nil {
		t.Fatal(err)
	}
	steps := []platform.ReplayStep{
		{Config: cfgA, Intervals: 2},
		{Config: cfgB, Intervals: 3},
		{Config: cfgA, Intervals: -1},
	}
	rep, err := replaySchedule(t, prog, steps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Switches != 2 {
		t.Errorf("expected 2 switches, got %d", rep.Switches)
	}
	if rep.Stats.Instructions != plain.Stats.Instructions {
		t.Errorf("replay retired %d instructions, plain run %d", rep.Stats.Instructions, plain.Stats.Instructions)
	}
	if rep.ExitCode != plain.ExitCode || rep.Checksum != plain.Checksum || rep.Console != plain.Console {
		t.Errorf("reconfigured replay changed architectural results: exit %d/%d checksum %#x/%#x",
			rep.ExitCode, plain.ExitCode, rep.Checksum, plain.Checksum)
	}
	if err := rep.Stats.ConsistencyError(); err != nil {
		t.Errorf("replay profile imbalance: %v", err)
	}
	checkSegmentSums(t, rep)
}

// TestReplayDeterminism: repeated replays — including concurrent ones,
// which the race detector supervises in the CI race job — must produce
// byte-identical ReplayReport JSON.
func TestReplayDeterminism(t *testing.T) {
	prog := assembleApp(t, "mix", workload.Tiny)
	cfgB := config.Default()
	cfgB.IU.RegWindows = 16
	steps := []platform.ReplayStep{
		{Config: config.Default(), Intervals: 3},
		{Config: cfgB, Intervals: -1},
	}
	opts := platform.Options{IntervalInstructions: 20_000}
	run := func() []byte {
		rep, err := platform.ReplaySchedule(prog, steps, opts)
		if err != nil {
			t.Error(err)
			return nil
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Error(err)
			return nil
		}
		return data
	}
	want := run()
	var wg sync.WaitGroup
	got := make([][]byte, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if string(g) != string(want) {
			t.Errorf("replay %d not byte-identical to the first", i)
		}
	}
}

// TestReplayOnline drives the closed-loop entry point with a scripted
// decision function: a constant decision must match the plain run
// exactly, and a decision that changes its mind must reconfigure at
// precisely the boundary it decided at. Both runs also run timed from a
// recording, which must answer byte for byte the same.
func TestReplayOnline(t *testing.T) {
	prog := assembleApp(t, "arith", workload.Tiny)
	cfg := config.Default()
	opts := platform.Options{IntervalInstructions: 5_000}
	plain, err := platform.RunWith(prog, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	constant := func() func(int, platform.Interval) config.Config {
		return func(int, platform.Interval) config.Config { return cfg }
	}
	rep := replayOnline(t, prog, cfg, constant, opts)
	if rep.Switches != 0 || rep.Stats != plain.Stats || rep.Checksum != plain.Checksum {
		t.Errorf("constant online run diverged from plain run")
	}

	cfgB := config.Default()
	cfgB.IU.RegWindows = 16
	var decisions []int
	flip := func() func(int, platform.Interval) config.Config {
		decisions = nil
		return func(i int, iv platform.Interval) config.Config {
			if len(iv.Signature) != platform.SignatureBuckets {
				t.Errorf("interval %d signature has %d buckets", i, len(iv.Signature))
			}
			decisions = append(decisions, i)
			if i >= 1 {
				return cfgB
			}
			return cfg
		}
	}
	rep = replayOnline(t, prog, cfg, flip, opts)
	if rep.Switches != 1 {
		t.Errorf("expected exactly 1 online switch, got %d", rep.Switches)
	}
	if len(rep.Segments) != 2 || rep.Segments[1].Start != 2 || !rep.Segments[1].Switched {
		t.Errorf("online switch did not land at interval 2: %+v", rep.Segments)
	}
	if rep.Stats.Instructions != plain.Stats.Instructions || rep.Checksum != plain.Checksum {
		t.Errorf("online run changed architectural results")
	}
	if want := rep.Intervals - 1; len(decisions) != want {
		t.Errorf("decision function consulted %d times, want %d (every live boundary)", len(decisions), want)
	}
	checkSegmentSums(t, rep)
}

// TestReplayValidation locks the argument contract: empty schedules,
// zero-interval steps, non-final unbounded steps and a missing interval
// length are rejected.
func TestReplayValidation(t *testing.T) {
	prog := assembleApp(t, "arith", workload.Tiny)
	cfg := config.Default()
	opts := platform.Options{IntervalInstructions: 5_000}
	cases := []struct {
		name  string
		steps []platform.ReplayStep
		opts  platform.Options
	}{
		{"empty", nil, opts},
		{"zero step", []platform.ReplayStep{{Config: cfg, Intervals: 0}}, opts},
		{"non-final unbounded", []platform.ReplayStep{{Config: cfg, Intervals: -1}, {Config: cfg, Intervals: 1}}, opts},
		{"no interval length", []platform.ReplayStep{{Config: cfg, Intervals: -1}}, platform.Options{}},
	}
	for _, tc := range cases {
		if _, err := platform.ReplaySchedule(prog, tc.steps, tc.opts); err == nil {
			t.Errorf("%s: ReplaySchedule accepted invalid input", tc.name)
		}
	}
}

// spillReaderProgram recurses 12 deep and, after each return, adds the
// first word of its frame's save area into %o1: a program that observes
// whether its windows were spilled, so its trace is window-sensitive.
const spillReaderProgram = `
        .text
start:  mov     12, %o0
        clr     %g2
        call    down
        nop
        clr     %o0
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

// TestReplayTraceDeclines: a window-sensitive trace declines a schedule
// that switches to another window count, and the replay then runs in
// full, while a schedule that keeps the recording's window count is
// timed from the trace exactly. A recording without intervals declines
// every replay.
func TestReplayTraceDeclines(t *testing.T) {
	prog, err := asm.Assemble(spillReaderProgram)
	if err != nil {
		t.Fatal(err)
	}
	opts := platform.Options{IntervalInstructions: 40}
	tr := recordFor(t, prog, opts)
	if tr == nil || !tr.WindowSensitive() {
		t.Fatal("a program reading its save areas did not record a window-sensitive trace")
	}
	base := config.Default()
	win16 := base
	win16.IU.RegWindows = 16
	dline := base
	dline.DCache.LineWords = 8
	if _, declined, err := tr.ReplaySchedule([]platform.ReplayStep{{Config: base, Intervals: 2}, {Config: win16, Intervals: -1}}); err != nil || declined == "" {
		t.Errorf("window-sensitive trace timed a switch to 16 windows (declined %q, err %v)", declined, err)
	}
	if _, declined := tr.ReplayOnline(base, func(int, platform.Interval) config.Config { return win16 }); declined == "" {
		t.Error("window-sensitive trace timed an online switch to 16 windows")
	}
	steps := []platform.ReplayStep{{Config: base, Intervals: 2}, {Config: dline, Intervals: 3}, {Config: base, Intervals: -1}}
	replaySchedule(t, prog, steps, opts)

	plain := recordFor(t, prog, platform.Options{})
	if _, declined, err := plain.ReplaySchedule(steps); err != nil || declined == "" {
		t.Errorf("a recording without intervals timed a replay (declined %q, err %v)", declined, err)
	}
}
