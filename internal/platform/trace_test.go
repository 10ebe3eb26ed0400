package platform_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/cpu"
	"liquidarch/internal/platform"
	"liquidarch/internal/profiler"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// modelBuildConfigs returns the base configuration and every
// configuration a full-space model build measures, one per timing key:
// each valid single change, and the four replacement policies on their
// sets=2 companion.
func modelBuildConfigs(t testing.TB) []config.Config {
	t.Helper()
	base := config.Default()
	space := config.FullSpace()
	cfgs := []config.Config{base}
	seen := map[config.Config]bool{base.TimingKey(): true}
	for _, v := range space.Vars() {
		cfg := v.Apply(base)
		if cfg.Validate() != nil {
			companion := map[config.Group]string{
				config.GroupICacheReplacement: "icachsets=2",
				config.GroupDCacheReplacement: "dcachsets=2",
			}[v.Group]
			cv, ok := space.ByName(companion)
			if !ok {
				t.Fatalf("%s is invalid alone and has no companion", v.Name)
			}
			cfg = v.Apply(cv.Apply(base))
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if !seen[cfg.TimingKey()] {
			seen[cfg.TimingKey()] = true
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// gridOptions are the run options the trace suites cover: a plain run,
// interval profiling, a sampled run that stops mid-program, and both.
var gridOptions = []struct {
	name string
	opts platform.Options
}{
	{"plain", platform.Options{}},
	{"intervals", platform.Options{IntervalInstructions: 100_000}},
	{"sample", platform.Options{SampleInstructions: 777_777}},
	{"intervals+sample", platform.Options{IntervalInstructions: 100_000, SampleInstructions: 777_777}},
}

// raceBuild is set under the race detector, which slows the Small grid
// tenfold; Tiny still covers every program, option set and configuration.
var raceBuild bool

func gridScales(t *testing.T) []workload.Scale {
	if testing.Short() || raceBuild {
		return []workload.Scale{workload.Tiny}
	}
	return []workload.Scale{workload.Tiny, workload.Small}
}

// fullRuns memoizes the RunWith reports of one (program, options) over
// modelBuildConfigs, which both trace suites compare against.
var fullRuns sync.Map // fullRunKey -> *fullRunEntry

type fullRunKey struct {
	prog *asm.Program
	opts platform.Options
}

type fullRunEntry struct {
	once sync.Once
	reps []*platform.RunReport
	err  error
}

func runGrid(t *testing.T, prog *asm.Program, cfgs []config.Config, opts platform.Options) []*platform.RunReport {
	t.Helper()
	v, _ := fullRuns.LoadOrStore(fullRunKey{prog, opts}, &fullRunEntry{})
	e := v.(*fullRunEntry)
	e.once.Do(func() {
		for _, cfg := range cfgs {
			rep, err := platform.RunWith(prog, cfg, opts)
			if err != nil {
				e.err = fmt.Errorf("%v: %w", cfg, err)
				return
			}
			e.reps = append(e.reps, rep)
		}
	})
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.reps
}

func benchProgram(t *testing.T, app string, scale workload.Scale) *asm.Program {
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

// recursionSource is the deep-recursion program of the cpu package's
// window tests, with a stack local: each level saves a frame, stores its
// depth at [%fp-4] right after the SAVE (so the store meets the write
// buffer straight after a spill), remembers it in %l0, recurses, and on
// the way back checks both copies (trap 1 otherwise). The local lies
// outside every save area, so the trace must stay window-free.
func recursionSource(depth int) string {
	return fmt.Sprintf(`
start:  mov     %d, %%o0
        call    down
        nop
        halt
down:   save    %%sp, -96, %%sp
        st      %%i0, [%%fp-4]
        mov     %%i0, %%l0
        cmp     %%i0, 0
        be      base
        nop
        sub     %%i0, 1, %%o0
        call    down
        nop
base:   ld      [%%fp-4], %%l1
        cmp     %%l1, %%l0
        bne     bad
        cmp     %%l0, %%i0
        be      ok
        nop
bad:    ta      1
ok:     ret
        restore
`, depth)
}

// recursionDepths nest depth+1 frames. 5 and 6 straddle the no-trap
// boundary at 8 windows: 6 frames never overflow, 7 do.
var recursionDepths = []int{5, 6, 25, 40}

func windowConfig(windows int) config.Config {
	cfg := config.Default()
	cfg.IU.RegWindows = windows
	return cfg
}

// functional is everything about a run that no configuration may change:
// the retired stream's counts, the program's outputs, and the interval
// partition with its signatures.
type functional struct {
	Instructions, Loads, Stores, Branches, TakenBranches, AnnulledSlots uint64
	Calls, Jumps, Mults, Divs, Saves, Restores                          uint64
	Checksum, ExitCode                                                  uint32
	Console                                                             string
	Sampled                                                             bool
	Intervals                                                           []functionalInterval
}

type functionalInterval struct {
	Instructions uint64
	Signature    []uint32
}

func functionalOf(rep *platform.RunReport) functional {
	s := rep.Stats
	f := functional{
		Instructions: s.Instructions, Loads: s.Loads, Stores: s.Stores,
		Branches: s.Branches, TakenBranches: s.TakenBranches, AnnulledSlots: s.AnnulledSlots,
		Calls: s.Calls, Jumps: s.Jumps, Mults: s.Mults, Divs: s.Divs,
		Saves: s.Saves, Restores: s.Restores,
		Checksum: rep.Checksum, ExitCode: rep.ExitCode, Console: rep.Console, Sampled: rep.Sampled,
	}
	for _, iv := range rep.Intervals {
		f.Intervals = append(f.Intervals, functionalInterval{iv.Instructions, iv.Signature})
	}
	return f
}

func (f functional) equal(o functional) bool {
	return slices.EqualFunc(f.Intervals, o.Intervals, func(a, b functionalInterval) bool {
		return a.Instructions == b.Instructions && slices.Equal(a.Signature, b.Signature)
	}) && fmt.Sprint(f.withoutIntervals()) == fmt.Sprint(o.withoutIntervals())
}

func (f functional) withoutIntervals() functional { f.Intervals = nil; return f }

// TestFunctionalOutcomeIsConfigInvariant is the license for timing every
// configuration from one recorded run: on every program and every
// configuration a model build measures, the retired stream, the outputs
// and the interval signatures equal the base run's. Only timing moves.
func TestFunctionalOutcomeIsConfigInvariant(t *testing.T) {
	cfgs := modelBuildConfigs(t)
	opts := platform.Options{IntervalInstructions: 100_000}
	for _, scale := range gridScales(t) {
		for _, app := range progs.Names() {
			t.Run(fmt.Sprintf("%s/%s", app, scale), func(t *testing.T) {
				t.Parallel()
				reps := runGrid(t, benchProgram(t, app, scale), cfgs, opts)
				want := functionalOf(reps[0])
				for i, rep := range reps[1:] {
					if got := functionalOf(rep); !got.equal(want) {
						t.Errorf("%v: functional outcome differs from base:\n got %+v\nwant %+v", cfgs[i+1], got.withoutIntervals(), want.withoutIntervals())
					}
				}
			})
		}
	}
	// The benchmark programs execute no SAVE, so the window count is
	// exercised by the recursion programs: spills and fills must round-
	// trip every frame whatever the number of windows.
	for _, depth := range recursionDepths {
		prog := mustAssemble(t, recursionSource(depth))
		var want functional
		for i, windows := range []int{8, 16, 32} {
			rep, err := platform.RunWith(prog, windowConfig(windows), platform.Options{})
			if err != nil {
				t.Fatalf("depth %d, %d windows: %v", depth, windows, err)
			}
			if rep.Stats.Saves != uint64(depth+1) {
				t.Fatalf("depth %d: %d saves", depth, rep.Stats.Saves)
			}
			got := functionalOf(rep)
			if i == 0 {
				want = got
			} else if !got.equal(want) {
				t.Errorf("depth %d: %d windows: %+v, 8 windows: %+v", depth, windows, got, want)
			}
		}
	}
}

// checkTimed demands that tr.Time(cfg) reproduce want byte for byte.
func checkTimed(t *testing.T, tr *platform.Trace, cfg config.Config, want *platform.RunReport) {
	t.Helper()
	got, _, ok := tr.Time(cfg)
	if !ok {
		t.Errorf("%v: trace declined", cfg)
		return
	}
	if g, w := marshalReport(t, got), marshalReport(t, want); g != w {
		t.Errorf("%v: timed report differs from RunWith:\n got %s\nwant %s", cfg, g, w)
	}
}

// TestTraceTimingMatchesRunWith is the parity suite of record-once,
// time-many: for every program, scale and option set, one recording
// on the base configuration must time every model-build configuration
// to the exact report RunWith produces, and the recording run's own
// report must be RunWith's too.
func TestTraceTimingMatchesRunWith(t *testing.T) {
	cfgs := modelBuildConfigs(t)
	for _, scale := range gridScales(t) {
		for _, app := range progs.Names() {
			for _, g := range gridOptions {
				t.Run(fmt.Sprintf("%s/%s/%s", app, scale, g.name), func(t *testing.T) {
					t.Parallel()
					prog := benchProgram(t, app, scale)
					reps := runGrid(t, prog, cfgs, g.opts)
					tr, rec, err := platform.Record(prog, cfgs[0], g.opts, nil)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := marshalReport(t, rec), marshalReport(t, reps[0]); g != w {
						t.Fatalf("recording run differs from RunWith:\n got %s\nwant %s", g, w)
					}
					if tr.WindowSensitive() {
						t.Error("benchmark program flagged window-sensitive")
					}
					for i, cfg := range cfgs {
						checkTimed(t, tr, cfg, reps[i])
					}
				})
			}
		}
	}
}

// TestFollowedTimingMatchesRunWith is the parity suite of walking behind
// the recording (DESIGN.md §22). For every program, scale and option set,
// a recording that publishes every few events is followed by a walk of
// every model-build configuration's dcache class; each configuration
// must then time to the report of a sealed trace nobody followed, and to
// RunWith's.
func TestFollowedTimingMatchesRunWith(t *testing.T) {
	prev := cpu.SetRecordChunk(61)
	t.Cleanup(func() { cpu.SetRecordChunk(prev) })
	cfgs := modelBuildConfigs(t)
	var followed atomic.Int64
	t.Run("grid", func(t *testing.T) {
		for _, scale := range gridScales(t) {
			for _, app := range progs.Names() {
				for _, g := range gridOptions {
					t.Run(fmt.Sprintf("%s/%s/%s", app, scale, g.name), func(t *testing.T) {
						t.Parallel()
						prog := benchProgram(t, app, scale)
						reps := runGrid(t, prog, cfgs, g.opts)
						sealed, _, err := platform.Record(prog, cfgs[0], g.opts, nil)
						if err != nil {
							t.Fatal(err)
						}
						tr, rec, err := platform.Record(prog, cfgs[0], g.opts, followAll(cfgs))
						if err != nil {
							t.Fatal(err)
						}
						followed.Add(int64(tr.Followed()))
						if g, w := marshalReport(t, rec), marshalReport(t, reps[0]); g != w {
							t.Fatalf("followed recording run differs from RunWith:\n got %s\nwant %s", g, w)
						}
						for i, cfg := range cfgs {
							want, _, ok := sealed.Time(cfg)
							if !ok {
								t.Fatalf("%v: sealed trace declined", cfg)
							}
							if g, w := marshalReport(t, want), marshalReport(t, reps[i]); g != w {
								t.Fatalf("%v: sealed trace differs from RunWith:\n got %s\nwant %s", cfg, g, w)
							}
							checkTimed(t, tr, cfg, reps[i])
						}
					})
				}
			}
		}
	})
	if followed.Load() == 0 {
		t.Error("no walk was made behind a recording")
	}
}

// followAll is Record's started hook for a follower of cfgs: it starts
// Follow on another goroutine, which has begun before the run does.
func followAll(cfgs []config.Config) func(*platform.Trace) {
	return func(tr *platform.Trace) {
		began := make(chan struct{})
		go func() {
			close(began)
			tr.Follow(context.Background(), cfgs)
		}()
		<-began
	}
}

// TestFollowFailedRecording: a recording that fails seals its trace as
// failed. Its follower returns, every configuration is declined, and
// Record fails as RunWith does.
func TestFollowFailedRecording(t *testing.T) {
	prog := benchProgram(t, "drr", workload.Tiny)
	opts := platform.Options{MaxInstructions: 100_000} // of about 150k
	cfgs := modelBuildConfigs(t)
	_, werr := platform.RunWith(prog, cfgs[0], opts)
	done := make(chan int)
	tr, rep, err := platform.Record(prog, cfgs[0], opts, func(tr *platform.Trace) {
		go func() {
			done <- tr.Follow(context.Background(), cfgs)
			for _, cfg := range cfgs {
				if _, _, ok := tr.Time(cfg); ok {
					t.Errorf("%v timed from a failed recording", cfg)
				}
			}
			close(done)
		}()
	})
	if werr == nil || err == nil || err.Error() != werr.Error() || tr != nil || rep != nil {
		t.Errorf("Record = (%v, %v, %v), RunWith error %v", tr, rep, err, werr)
	}
	<-done
	<-done
}

// TestTraceTimingWindows covers the window traps, which no benchmark
// program executes: the recursion programs recorded at 8, 16 and 32
// windows must time every window count, on two dcache geometries, to
// RunWith's report.
func TestTraceTimingWindows(t *testing.T) {
	windowCounts := []int{8}
	for w := 16; w <= 32; w++ {
		windowCounts = append(windowCounts, w)
	}
	dcaches := []config.CacheConfig{
		config.Default().DCache,
		{Sets: 2, SetSizeKB: 1, LineWords: 4, Replacement: config.LRU},
	}
	for _, depth := range recursionDepths {
		prog := mustAssemble(t, recursionSource(depth))
		for _, recWin := range []int{8, 16, 32} {
			tr, rec, err := platform.Record(prog, windowConfig(recWin), platform.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tr.WindowSensitive() {
				t.Fatalf("depth %d: recursion program flagged window-sensitive", depth)
			}
			want, err := platform.RunWith(prog, windowConfig(recWin), platform.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := marshalReport(t, rec), marshalReport(t, want); g != w {
				t.Fatalf("recording run differs from RunWith:\n got %s\nwant %s", g, w)
			}
			for _, windows := range windowCounts {
				for _, dc := range dcaches {
					cfg := windowConfig(windows)
					cfg.DCache = dc
					want, err := platform.RunWith(prog, cfg, platform.Options{})
					if err != nil {
						t.Fatal(err)
					}
					checkTimed(t, tr, cfg, want)
				}
			}
		}
	}
}

// TestTraceTimingRecursionModelBuild times every model-build
// configuration through one trace of each recursion program. The
// benchmark programs execute no SAVE and no JMPL, so this is where the
// window and jump rules of the timing classes (cpu.TimingClass) meet
// configurations they must keep apart.
func TestTraceTimingRecursionModelBuild(t *testing.T) {
	cfgs := modelBuildConfigs(t)
	for _, depth := range recursionDepths {
		t.Run(fmt.Sprint(depth), func(t *testing.T) {
			t.Parallel()
			prog := mustAssemble(t, recursionSource(depth))
			tr, _, err := platform.Record(prog, cfgs[0], platform.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range cfgs {
				want, err := platform.RunWith(prog, cfg, platform.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if cfg == cfgs[0] {
					// 8 windows hold 6 nested frames without a trap.
					if traps := want.Stats.WindowOverflows > 0; traps != (depth+1 > 6) {
						t.Fatalf("%d frames at 8 windows: %d overflows", depth+1, want.Stats.WindowOverflows)
					}
				}
				checkTimed(t, tr, cfg, want)
			}
		})
	}
}

// TestTraceClassSingleflight: concurrent callers of one timing class
// share a single walk, and each still gets a report of its own: its own
// Config, and Intervals and Signature slices no other report shares.
func TestTraceClassSingleflight(t *testing.T) {
	prog := benchProgram(t, "arith", workload.Tiny)
	opts := platform.Options{IntervalInstructions: 20_000}
	tr, _, err := platform.Record(prog, config.Default(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// arith executes no SAVE, so every window count with one dcache is one
	// class, and the dcache keeps it apart from the recording's.
	var cfgs []config.Config
	for w := 16; w <= 32; w++ {
		cfg := windowConfig(w)
		cfg.DCache = config.CacheConfig{Sets: 2, SetSizeKB: 1, LineWords: 4, Replacement: config.LRU}
		cfgs = append(cfgs, cfg)
	}
	class, _ := tr.Class(cfgs[0])
	if rec, _ := tr.Class(config.Default()); class == rec {
		t.Fatal("the configurations share the recording's class")
	}
	for _, cfg := range cfgs {
		if k, ok := tr.Class(cfg); !ok || k != class {
			t.Fatalf("%v is not in the class of %v", cfg, cfgs[0])
		}
	}
	reps := make([]*platform.RunReport, len(cfgs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if rep, _, ok := tr.Time(cfg); ok {
				reps[i] = rep
			} else {
				t.Errorf("%v declined", cfg)
			}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if w := tr.Walks(); w != 1 {
		t.Errorf("%d walks for one class, want 1", w)
	}
	want := runGrid(t, prog, cfgs[:1], opts)[0]
	if len(want.Intervals) < 2 {
		t.Fatalf("%d intervals; the test needs several", len(want.Intervals))
	}
	matches := func(i int) bool {
		w := *want
		w.Config = cfgs[i]
		return marshalReport(t, reps[i]) == marshalReport(t, &w)
	}
	for i := range reps {
		if !matches(i) {
			t.Errorf("%v: report differs from RunWith's", cfgs[i])
		}
	}
	// Scribble over the first report: no other may change.
	for k := range reps[0].Intervals {
		reps[0].Intervals[k].Stats.Cycles++
		reps[0].Intervals[k].Signature[0]++
	}
	for i := 1; i < len(reps); i++ {
		if !matches(i) {
			t.Errorf("%v: report changed with another report's intervals", cfgs[i])
		}
	}
}

// TestTraceDeclinesInvalidConfig: a configuration RunWith would reject is
// declined, so the caller's fallback reports RunWith's error.
func TestTraceDeclinesInvalidConfig(t *testing.T) {
	prog := benchProgram(t, "arith", workload.Tiny)
	tr, _, err := platform.Record(prog, config.Default(), platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.DCache.Sets = 7
	if _, _, ok := tr.Time(cfg); ok {
		t.Error("invalid configuration timed")
	}
}

// TestRecordFailureMatchesRunWith: a run that hits the instruction limit
// records nothing and fails exactly as RunWith does.
func TestRecordFailureMatchesRunWith(t *testing.T) {
	prog := benchProgram(t, "arith", workload.Tiny)
	opts := platform.Options{MaxInstructions: 1000}
	_, werr := platform.RunWith(prog, config.Default(), opts)
	tr, rep, err := platform.Record(prog, config.Default(), opts, nil)
	if werr == nil || err == nil || err.Error() != werr.Error() || tr != nil || rep != nil {
		t.Errorf("Record = (%v, %v, %v), RunWith error %v", tr, rep, err, werr)
	}
}

// TestTimedProfileBalances: a timed profile balances on its own, and its
// intervals sum back to the whole run.
func TestTimedProfileBalances(t *testing.T) {
	prog := benchProgram(t, "frag", workload.Tiny)
	tr, _, err := platform.Record(prog, config.Default(), platform.Options{IntervalInstructions: 50_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range modelBuildConfigs(t) {
		rep, _, ok := tr.Time(cfg)
		if !ok {
			t.Fatalf("%v declined", cfg)
		}
		var sum profiler.Stats
		for _, iv := range rep.Intervals {
			sum.Add(iv.Stats)
		}
		if sum != rep.Stats {
			t.Errorf("%v: intervals do not sum to the run", cfg)
		}
		if err := rep.Stats.ConsistencyError(); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
	}
}
