// Command perfbench is the repository benchmark: a single-process load
// generator that drives one tuning workload through the public APIs of
// core, measure, platform, binlp and serve, checks every answer against
// recorded expected values, and prints its metrics as one JSON object on
// the last line of standard output. With --trace 0 that object holds the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// separate traced run. Human-readable lines above it record the host and
// toolchain, every metric with its unit and sample count, and the
// per-request stage breakdown.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload warm-serve --seed 1 --seconds 12 --trace 0
//
// README.md describes the workloads and which layer metric should move
// which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"cold-tune":  runColdTune,
	"warm-serve": runWarmServe,
	"restart":    runRestart,
}

// runLimit bounds one run, set-up and probes included.
const runLimit = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: cold-tune, warm-serve or restart")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 15, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's temporary stores")
	record := flag.String("record", "", "tune the whole request grid and write its expected values to this file")
	flag.Parse()

	if *record != "" {
		if err := recordExpected(*record); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload cold-tune|warm-serve|restart, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	exp, err := loadExpected()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	root, err := os.MkdirTemp(*workdir, "perfbench-")
	if err != nil {
		fatal(err)
	}
	// A run must end within three minutes; a hung one fails without a
	// result instead of overrunning.
	time.AfterFunc(runLimit, func() { fatal(fmt.Errorf("run exceeded %s", runLimit)) })
	b := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, root, exp)
	printHost()
	err = run(b)
	os.RemoveAll(root)
	if err != nil {
		fatal(err)
	}
	b.report()
}

// fatal reports err and exits without a result line.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the human-readable summary and then the result line.
func (b *bench) report() {
	metrics, defs := b.layers, layerDefs
	if !b.traced {
		metrics, defs = b.endToEnd(), endToEndDefs
	}
	fmt.Printf("workload %s seed %d: %d requests attempted, %d failed (failed_pct %.3f%%)\n",
		b.workload, b.seed, b.attempted, b.failed, pct(float64(b.failed), float64(b.attempted)))
	for _, f := range b.failures {
		fmt.Printf("  failure: %s\n", f)
	}
	for _, l := range b.notes {
		fmt.Println(l)
	}
	out := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	names := make([]string, 0, len(defs))
	for name := range defs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := metrics[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[name] = metric{Value: v, Unit: defs[name]}
		fmt.Printf("  %-34s %14.4f %s\n", name, v, defs[name])
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// scratch creates a fresh directory under the run's temporary root.
func (b *bench) scratch(prefix string) (string, error) {
	return os.MkdirTemp(b.root, prefix)
}
