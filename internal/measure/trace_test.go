package measure

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
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

// longStrideSource runs strideSource's loop over the same buffer many
// times: a recording of a few million instructions, which publishes its
// trace many times before it ends.
const longStrideSource = `
start:  set     1000, %l3
outer:  set     0x40010000, %l0
        mov     200, %l1
loop:   ld      [%l0], %l2
        add     %l2, %l1, %l2
        st      %l2, [%l0+64]
        add     %l0, 128, %l0
        subcc   %l1, 1, %l1
        bne     loop
        nop
        subcc   %l3, 1, %l3
        bne     outer
        nop
        clr     %o0
        mov     %l2, %o1
        halt
`

// dcachePlan is a plan of the base and dcache variants, with one
// configuration of another class beside them.
func dcachePlan() []config.Config {
	cfgs := []config.Config{config.Default()}
	for _, kb := range []int{1, 2, 8, 16, 32} {
		cfgs = append(cfgs, cfgWithSetKB(kb))
	}
	lru := config.Default()
	lru.DCache.Sets, lru.DCache.Replacement = 2, config.LRU
	icache := config.Default()
	icache.ICache.LineWords = 8
	return append(cfgs, lru, icache)
}

// TestPlanFollowsRecording: a planned scope measured by two workers
// records once, on the base, at most one caller follows the recording,
// and every report equals a full run's.
func TestPlanFollowsRecording(t *testing.T) {
	prog := mustAssemble(t, longStrideSource)
	cfgs := dcachePlan()
	tracer := obs.NewTracer(obs.TracerOptions{})
	ctx := WithTraceScope(obs.WithTracer(context.Background(), tracer))
	Plan(ctx, prog, platform.Options{}, cfgs)
	c := NewCache(Simulator{}, 64)
	before := platform.Counters()
	reps := make([]*platform.RunReport, len(cfgs))
	// The last configuration first: whoever records, it records the base.
	if err := ForEach(ctx, len(cfgs), 2, func(i int) error {
		i = len(cfgs) - 1 - i
		rep, err := c.Measure(ctx, prog, cfgs[i], platform.Options{})
		reps[i] = rep
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tracer.Finish()
	if d := platform.Counters().TraceRecords - before.TraceRecords; d != 1 {
		t.Errorf("%d recordings, want 1", d)
	}
	sims := map[string]int{}
	for _, rec := range tracer.Snapshot().Spans {
		if sim, ok := rec.Attr("sim"); ok {
			sims[sim.Str]++
		}
	}
	if sims["record"] != 1 || sims["follow"] > 1 || sims["full"] != 0 {
		t.Errorf("measure spans say %v", sims)
	}
	for i, cfg := range cfgs {
		want, err := platform.RunWith(prog, cfg, platform.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := reportJSON(t, reps[i]), reportJSON(t, want); g != w {
			t.Errorf("%v: planned report differs from RunWith:\n got %s\nwant %s", cfg, g, w)
		}
	}
}

// TestPlanFollowerFallsBackOnFailedRecord: when a planned recording
// fails, its follower and every other caller run in full and fail as
// RunWith does.
func TestPlanFollowerFallsBackOnFailedRecord(t *testing.T) {
	prog := mustAssemble(t, longStrideSource)
	opts := platform.Options{MaxInstructions: 300_000}
	cfgs := dcachePlan()
	ctx := WithTraceScope(context.Background())
	Plan(ctx, prog, opts, cfgs)
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Simulator{}.Measure(ctx, prog, cfg, opts)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		_, werr := platform.RunWith(prog, cfg, opts)
		if werr == nil || errs[i] == nil || errs[i].Error() != werr.Error() {
			t.Errorf("%v: planned error %v, RunWith error %v", cfg, errs[i], werr)
		}
	}
}

// TestPlanFollowerCancellation: cancelling the follower in the middle of
// following returns its context's error at once; the recording goes on,
// and the walks the follower began are finished for the callers left.
func TestPlanFollowerCancellation(t *testing.T) {
	prog := mustAssemble(t, longStrideSource)
	cfgs := dcachePlan()
	ctx := WithTraceScope(context.Background())
	Plan(ctx, prog, platform.Options{}, cfgs)
	s := ctx.Value(traceScopeKey{}).(*traceScope)
	recorded := make(chan error, 1)
	go func() {
		_, err := Simulator{}.Measure(ctx, prog, cfgs[0], platform.Options{})
		recorded <- err
	}()
	var e *scopedTrace
	for e == nil {
		s.mu.Lock()
		e = s.entries[traceKeyOf(prog, platform.Options{})]
		s.mu.Unlock()
		runtime.Gosched()
	}
	<-e.ready
	fctx, cancel := context.WithCancel(ctx)
	followed := make(chan error, 1)
	go func() {
		_, err := Simulator{}.Measure(fctx, prog, cfgs[1], platform.Options{})
		followed <- err
	}()
	for following := false; !following; runtime.Gosched() {
		s.mu.Lock()
		following = e.followed
		s.mu.Unlock()
	}
	cancel()
	if err := <-followed; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower returned %v", err)
	}
	select {
	case <-e.done:
		t.Log("the recording ended before the follower was cancelled")
	default:
	}
	if err := <-recorded; err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		rep, err := Simulator{}.Measure(ctx, prog, cfg, platform.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := platform.RunWith(prog, cfg, platform.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := reportJSON(t, rep), reportJSON(t, want); g != w {
			t.Errorf("%v: report after a cancelled follower differs from RunWith:\n got %s\nwant %s", cfg, g, w)
		}
	}
}
