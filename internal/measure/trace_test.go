package measure

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
)

// strideSource walks a buffer with loads and stores, so its timing
// depends on the dcache geometry.
const strideSource = `
start:  set     0x40010000, %l0
        mov     200, %l1
loop:   ld      [%l0], %l2
        add     %l2, %l1, %l2
        st      %l2, [%l0+64]
        add     %l0, 128, %l0
        subcc   %l1, 1, %l1
        bne     loop
        nop
        clr     %o0
        mov     %l2, %o1
        halt
`

func reportJSON(t *testing.T, rep *platform.RunReport) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTraceScopeSingleflight: concurrent measurements of one program in
// one scope record it exactly once, and every configuration's report
// equals a full run's.
func TestTraceScopeSingleflight(t *testing.T) {
	prog := mustAssemble(t, strideSource)
	var cfgs []config.Config
	for _, kb := range []int{1, 2, 4, 8, 16, 32} {
		cfgs = append(cfgs, cfgWithSetKB(kb))
	}
	ctx := WithTraceScope(context.Background())
	before := platform.Counters()
	reps := make([]*platform.RunReport, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Simulator{}.Measure(ctx, prog, cfg, platform.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if d := platform.Counters().TraceRecords - before.TraceRecords; d != 1 {
		t.Errorf("%d recordings, want 1", d)
	}
	for i, cfg := range cfgs {
		want, err := platform.RunWith(prog, cfg, platform.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := reportJSON(t, reps[i]), reportJSON(t, want); g != w {
			t.Errorf("%v: scoped report differs from RunWith:\n got %s\nwant %s", cfg, g, w)
		}
	}
}

// TestTraceScopeFailedRecordFallsBack: when the recording run fails, the
// first caller gets RunWith's error and later callers run in full and
// fail identically; an invalid configuration never claims the recording.
func TestTraceScopeFailedRecordFallsBack(t *testing.T) {
	prog := mustAssemble(t, strideSource)
	opts := platform.Options{MaxInstructions: 100}
	ctx := WithTraceScope(context.Background())
	bad := config.Default()
	bad.DCache.Sets = 7
	if _, err := (Simulator{}).Measure(ctx, prog, bad, platform.Options{}); err == nil {
		t.Fatal("invalid configuration measured")
	}
	for _, cfg := range []config.Config{config.Default(), cfgWithSetKB(8)} {
		_, werr := platform.RunWith(prog, cfg, opts)
		_, err := Simulator{}.Measure(ctx, prog, cfg, opts)
		if werr == nil || err == nil || err.Error() != werr.Error() {
			t.Errorf("%v: scoped error %v, RunWith error %v", cfg, err, werr)
		}
	}
	// The invalid configuration left the plain-options recording free.
	before := platform.Counters()
	if _, err := (Simulator{}).Measure(ctx, prog, config.Default(), platform.Options{}); err != nil {
		t.Fatal(err)
	}
	if d := platform.Counters().TraceRecords - before.TraceRecords; d != 1 {
		t.Errorf("%d recordings, want 1", d)
	}
}

// TestTraceScopeAnnotatesSpans: under a tracer, every measure span says
// how its run was answered. The first configuration records, a second
// of another timing class walks the trace, a repeat of the recording's
// class is shared, and an invalid configuration runs in full; the
// callers that waited on the recording carry the wait.
func TestTraceScopeAnnotatesSpans(t *testing.T) {
	prog := mustAssemble(t, strideSource)
	tracer := obs.NewTracer(obs.TracerOptions{})
	ctx := WithTraceScope(obs.WithTracer(context.Background(), tracer))
	c := NewCache(Simulator{}, 64)
	windows := config.Default()
	windows.IU.RegWindows = 16 // the program never saves: the recording's class
	bad := config.Default()
	bad.DCache.Sets = 7
	for _, cfg := range []config.Config{config.Default(), cfgWithSetKB(1), windows, bad} {
		c.Measure(ctx, prog, cfg, platform.Options{})
	}
	tracer.Finish()
	var got []string
	for _, rec := range tracer.Snapshot().Spans {
		if rec.Name != "measure" {
			continue
		}
		sim, _ := rec.Attr("sim")
		_, waited := rec.Attr("sim_wait_ns")
		got = append(got, fmt.Sprintf("%s/%v", sim.Str, waited))
	}
	if want := []string{"record/false", "walk/true", "shared/true", "full/false"}; !slices.Equal(got, want) {
		t.Errorf("measure spans say %v, want %v", got, want)
	}
}
