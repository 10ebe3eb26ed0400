package platform_test

import (
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// intervalRun executes app at Tiny scale with the given options.
func intervalRun(t *testing.T, app string, opts platform.Options) *platform.RunReport {
	t.Helper()
	b, ok := progs.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	prog, err := b.Assemble(workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := platform.RunWith(prog, config.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestIntervalsSumToWholeRun: interval profiling must not perturb the
// simulation — the whole-run report equals a plain run's, and the
// interval deltas sum back to it exactly, counter for counter.
func TestIntervalsSumToWholeRun(t *testing.T) {
	for _, app := range progs.Names() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			plain := intervalRun(t, app, platform.Options{})
			rep := intervalRun(t, app, platform.Options{IntervalInstructions: 10_000})
			if rep.Cycles() != plain.Cycles() || rep.Stats != plain.Stats {
				t.Errorf("interval run diverged: %d cycles vs %d", rep.Cycles(), plain.Cycles())
			}
			if rep.Checksum != plain.Checksum || rep.ExitCode != plain.ExitCode {
				t.Errorf("results diverged: checksum %#x vs %#x", rep.Checksum, plain.Checksum)
			}
			if len(rep.Intervals) == 0 {
				t.Fatal("no intervals collected")
			}
			var sum platform.Interval
			var sigTotal uint64
			for i, iv := range rep.Intervals {
				if iv.Index != i {
					t.Errorf("interval %d has index %d", i, iv.Index)
				}
				if i < len(rep.Intervals)-1 && iv.Instructions != 10_000 {
					t.Errorf("interval %d is %d instructions, want 10000", i, iv.Instructions)
				}
				sum.Instructions += iv.Instructions
				sum.Stats.Add(iv.Stats)
				sum.ICache.Add(iv.ICache)
				sum.DCache.Add(iv.DCache)
				if len(iv.Signature) != platform.SignatureBuckets {
					t.Fatalf("interval %d signature has %d buckets", i, len(iv.Signature))
				}
				for _, c := range iv.Signature {
					sigTotal += uint64(c)
				}
			}
			if sum.Stats != rep.Stats {
				t.Errorf("interval stats do not sum to the whole run:\n%+v\nvs\n%+v", sum.Stats, rep.Stats)
			}
			if sum.ICache != rep.ICache || sum.DCache != rep.DCache {
				t.Error("interval cache counters do not sum to the whole run")
			}
			// Every taken CTI lands in some bucket.
			wantSig := rep.Stats.TakenBranches + rep.Stats.Calls + rep.Stats.Jumps
			if sigTotal != wantSig {
				t.Errorf("signature total %d, want taken+calls+jumps = %d", sigTotal, wantSig)
			}
		})
	}
}

// TestIntervalsStepEquivalence: the reference Step path (forced by a
// trace writer) must produce byte-identical intervals to the fast path —
// the signature increments live in two implementations.
func TestIntervalsStepEquivalence(t *testing.T) {
	fast := intervalRun(t, "arith", platform.Options{IntervalInstructions: 5_000})
	slow := intervalRun(t, "arith", platform.Options{
		IntervalInstructions: 5_000,
		TraceWriter:          io.Discard,
	})
	if !reflect.DeepEqual(fast.Intervals, slow.Intervals) {
		t.Error("fast-path intervals differ from Step-path intervals")
	}
}

// TestIntervalsDeterministic: rerunning an interval-profiled run on a
// pooled engine, sampled or not, produces a report byte-identical to a
// fresh engine's (serialization included — this is what golden phase
// traces and the measurement caches rest on).
func TestIntervalsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts platform.Options
	}{
		{"whole", platform.Options{IntervalInstructions: 7_500}},
		{"sampled", platform.Options{IntervalInstructions: 2_000, SampleInstructions: 20_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, _ := progs.ByName("blastn")
			prog, err := b.Assemble(workload.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			e, err := platform.NewEngine(prog, config.Default(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tc.opts.SampleInstructions > 0 && !fresh.Sampled {
				t.Fatal("sample limit did not truncate the run; pick a smaller limit")
			}
			want := marshalReport(t, fresh)
			// The second RunWith reruns the engine the first released to
			// the pool, so it starts from a restored snapshot and reset core.
			for i := 0; i < 2; i++ {
				rep, err := platform.RunWith(prog, config.Default(), tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := marshalReport(t, rep); got != want {
					t.Fatalf("run %d diverged from a fresh engine:\ngot  %s\nwant %s", i, got, want)
				}
			}
		})
	}
}

func marshalReport(t *testing.T, rep *platform.RunReport) string {
	t.Helper()
	j, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// TestIntervalsRespectInstructionLimit: an oversized (even overflowing)
// interval length must not defeat the runaway-run guard — the abort at
// MaxInstructions fires exactly as on the non-interval path.
func TestIntervalsRespectInstructionLimit(t *testing.T) {
	b, _ := progs.ByName("blastn")
	prog, err := b.Assemble(workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	_, err = platform.RunWith(prog, config.Default(), platform.Options{
		IntervalInstructions: ^uint64(0),
		MaxInstructions:      10_000,
	})
	if err == nil {
		t.Fatal("runaway guard should abort the run")
	}
}

// TestIntervalsWithSampling: interval profiling under a sample limit
// stops exactly at the limit and flags the run sampled.
func TestIntervalsWithSampling(t *testing.T) {
	rep := intervalRun(t, "blastn", platform.Options{
		IntervalInstructions: 4_000,
		SampleInstructions:   10_000,
	})
	if !rep.Sampled {
		t.Error("run should be sampled")
	}
	if rep.Stats.Instructions != 10_000 {
		t.Errorf("sampled run retired %d instructions, want 10000", rep.Stats.Instructions)
	}
	if n := len(rep.Intervals); n != 3 {
		t.Errorf("got %d intervals, want 3 (4000+4000+2000)", n)
	}
	if last := rep.Intervals[len(rep.Intervals)-1]; last.Instructions != 2_000 {
		t.Errorf("final interval is %d instructions, want 2000", last.Instructions)
	}
}
