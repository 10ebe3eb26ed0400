package exhaustive

import (
	"context"
	"errors"
	"sync"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/measure"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

func TestDcacheGeometryConfigsMatchPaperFeasibleSet(t *testing.T) {
	cfgs := DcacheGeometryConfigs()
	// The paper's Figure 2 lists exactly 19 feasible combinations.
	if len(cfgs) != 19 {
		t.Fatalf("feasible dcache geometries = %d, paper shows 19", len(cfgs))
	}
	// The infeasible five: 2x32, 3x16, 3x32, 4x16, 4x32.
	infeasible := map[[2]int]bool{
		{2, 32}: true, {3, 16}: true, {3, 32}: true, {4, 16}: true, {4, 32}: true,
	}
	for _, cfg := range cfgs {
		key := [2]int{cfg.DCache.Sets, cfg.DCache.SetSizeKB}
		if infeasible[key] {
			t.Errorf("%dx%dKB should not fit the device", key[0], key[1])
		}
	}
}

func TestSweepRunsAndOrders(t *testing.T) {
	b, _ := progs.ByName("arith")
	cfgs := []config.Config{config.Default(), config.Default()}
	cfgs[1].DCache.SetSizeKB = 8
	results, err := Sweep(context.Background(), b, workload.Tiny, cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Config != cfgs[0] || results[1].Config != cfgs[1] {
		t.Error("results not in input order")
	}
	// Arith is dcache-insensitive: equal cycles.
	if results[0].Cycles != results[1].Cycles {
		t.Errorf("arith cycles differ: %d vs %d", results[0].Cycles, results[1].Cycles)
	}
	if results[0].Seconds() <= 0 {
		t.Error("seconds conversion broken")
	}
}

func TestSweepRejectsInfeasible(t *testing.T) {
	b, _ := progs.ByName("arith")
	cfg := config.Default()
	cfg.DCache.SetSizeKB = 64
	if _, err := Sweep(context.Background(), b, workload.Tiny, []config.Config{cfg}, 1); err == nil {
		t.Error("64KB dcache sweep should error (does not fit)")
	}
}

func TestBestByRuntimeTieBreaks(t *testing.T) {
	b, _ := progs.ByName("blastn")
	results, err := DcacheGeometry(context.Background(), b, workload.Tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	best, err := BestByRuntime(results)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Cycles < best.Cycles {
			t.Errorf("best %d cycles but %v has %d", best.Cycles, r.Config.DiffBase(), r.Cycles)
		}
		if r.Cycles == best.Cycles && r.Resources.BRAM < best.Resources.BRAM {
			t.Errorf("tie-break should prefer lower BRAM: best %d blocks, %v has %d",
				best.Resources.BRAM, r.Config.DiffBase(), r.Resources.BRAM)
		}
	}
}

func TestBestByRuntimeEmpty(t *testing.T) {
	if _, err := BestByRuntime(nil); err == nil {
		t.Error("empty results should error")
	}
}

// countingProvider counts measurements and optionally cancels the context
// after a threshold.
type countingProvider struct {
	inner  measure.Provider
	cancel context.CancelFunc
	after  int
	mu     sync.Mutex
	seen   int
}

func (p *countingProvider) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	p.mu.Lock()
	p.seen++
	if p.cancel != nil && p.seen > p.after {
		p.cancel()
	}
	p.mu.Unlock()
	return p.inner.Measure(ctx, prog, cfg, opts)
}

func TestSweepAbortsOnCancelledContext(t *testing.T) {
	b, _ := progs.ByName("arith")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, b, workload.Tiny, DcacheGeometryConfigs(), 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestSweepAbortsMidSweep(t *testing.T) {
	b, _ := progs.ByName("arith")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &countingProvider{inner: measure.NewCache(measure.Simulator{}, 64), cancel: cancel, after: 2}
	_, err := SweepWith(ctx, p, b, workload.Tiny, DcacheGeometryConfigs(), 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep cancelled mid-sweep: err = %v, want context.Canceled", err)
	}
	// With 1 worker and cancellation after the 2nd measurement, the 19
	// configurations must not all have been measured.
	if p.seen >= 19 {
		t.Fatalf("sweep measured %d configurations after cancellation", p.seen)
	}
}

// TestSweepSharesProviderMemoization is the regression test for the
// custom-space memoization bug: two sweeps over the same caller-supplied
// configurations must reuse the provider's runs, not re-simulate.
func TestSweepSharesProviderMemoization(t *testing.T) {
	b, _ := progs.ByName("arith")
	cfgs := []config.Config{config.Default(), config.Default()}
	cfgs[1].DCache.SetSizeKB = 8
	p := &countingProvider{inner: measure.NewCache(measure.Simulator{}, 64)}
	for i := 0; i < 2; i++ {
		if _, err := SweepWith(context.Background(), p, b, workload.Tiny, cfgs, 2); err != nil {
			t.Fatal(err)
		}
	}
	// 4 requests reached the provider, but the cache behind it must have
	// simulated each distinct configuration exactly once.
	stats := p.inner.(*measure.Cache).Stats()
	if stats.Misses != 2 || stats.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 2 misses and 2 hits", stats)
	}
}

// TestDcacheGeometrySweepRecordsOnce: a sweep runs under one trace scope,
// so its 19 configurations cost one recording run and 18 timings.
func TestDcacheGeometrySweepRecordsOnce(t *testing.T) {
	b, _ := progs.ByName("blastn")
	cfgs := DcacheGeometryConfigs()
	before := platform.Counters()
	if _, err := SweepWith(context.Background(), measure.NewCache(measure.Simulator{}, 64), b, workload.Tiny, cfgs, 2); err != nil {
		t.Fatal(err)
	}
	after := platform.Counters()
	if d := after.TraceRecords - before.TraceRecords; d != 1 {
		t.Errorf("trace records = %d, want 1", d)
	}
	if d := after.TraceTimed - before.TraceTimed; d != uint64(len(cfgs)-1) {
		t.Errorf("timed %d configurations, want %d", d, len(cfgs)-1)
	}
}
