// Package exhaustive is the brute-force baseline of the paper's Section 5:
// enumerate a (restricted) configuration space outright, build and run
// every feasible member, and sort for the optimum. On the full space this
// is the 3.6-billion-configuration non-starter the paper argues against;
// on the dcache sets × set-size sub-space it is the ground truth the
// optimizer is judged near-optimal against.
package exhaustive

import (
	"context"
	"fmt"
	"sort"

	"liquidarch/internal/config"
	"liquidarch/internal/fpga"
	"liquidarch/internal/measure"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// Result is one enumerated configuration with its measured costs.
type Result struct {
	Config    config.Config
	Cycles    uint64
	Resources fpga.Resources
}

// Seconds converts the runtime to seconds at the platform clock.
func (r Result) Seconds() float64 { return float64(r.Cycles) / 25e6 }

// Sweep builds and runs every configuration in the list (skipping ones
// that do not fit the device) through the shared measurement provider and
// returns results in input order. Cancelling ctx aborts the sweep
// promptly. workers <= 0 uses GOMAXPROCS.
func Sweep(ctx context.Context, b *progs.Benchmark, scale workload.Scale, cfgs []config.Config, workers int) ([]Result, error) {
	return SweepWith(ctx, measure.Default(), b, scale, cfgs, workers)
}

// SweepWith is Sweep against an explicit measurement provider. The
// program is the benchmark's memoized assembly for the scale, so every
// sweep — including ones over caller-supplied custom spaces — shares the
// provider's memoized runs with the model builder and across repeats.
func SweepWith(ctx context.Context, p measure.Provider, b *progs.Benchmark, scale workload.Scale, cfgs []config.Config, workers int) ([]Result, error) {
	prog, err := b.Assemble(scale)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(cfgs))
	err = measure.ForEach(ctx, len(cfgs), workers, func(i int) error {
		cfg := cfgs[i]
		res, err := fpga.Synthesize(cfg)
		if err != nil {
			return err
		}
		if !res.FitsDevice() {
			return fmt.Errorf("exhaustive: %v does not fit the device", cfg.DiffBase())
		}
		rep, err := p.Measure(ctx, prog, cfg, platform.Options{})
		if err != nil {
			return err
		}
		results[i] = Result{Config: cfg, Cycles: rep.Cycles(), Resources: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// DcacheGeometryConfigs enumerates the Section 5 sub-space: dcache sets
// 1-4 × set size {1,2,4,8,16,32} KB, keeping only configurations that fit
// the device (19 of 24, exactly the rows of the paper's Figure 2).
func DcacheGeometryConfigs() []config.Config {
	var out []config.Config
	for _, sets := range []int{1, 2, 3, 4} {
		for _, kb := range []int{1, 2, 4, 8, 16, 32} {
			cfg := config.Default()
			cfg.DCache.Sets = sets
			cfg.DCache.SetSizeKB = kb
			if fpga.Feasible(cfg) {
				out = append(out, cfg)
			}
		}
	}
	return out
}

// DcacheGeometry runs the full Section 5 exhaustive study for one
// benchmark.
func DcacheGeometry(ctx context.Context, b *progs.Benchmark, scale workload.Scale, workers int) ([]Result, error) {
	return Sweep(ctx, b, scale, DcacheGeometryConfigs(), workers)
}

// BestByRuntime returns the result a runtime-optimizing sort selects:
// minimum cycles, ties broken by BRAM, then LUTs, then fewer sets (the
// "simple sort" of Section 5).
func BestByRuntime(results []Result) (Result, error) {
	if len(results) == 0 {
		return Result{}, fmt.Errorf("exhaustive: no results")
	}
	sorted := make([]Result, len(results))
	copy(sorted, results)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Cycles != b.Cycles {
			return a.Cycles < b.Cycles
		}
		if a.Resources.BRAM != b.Resources.BRAM {
			return a.Resources.BRAM < b.Resources.BRAM
		}
		if a.Resources.LUTs != b.Resources.LUTs {
			return a.Resources.LUTs < b.Resources.LUTs
		}
		return a.Config.DCache.Sets < b.Config.DCache.Sets
	})
	return sorted[0], nil
}
