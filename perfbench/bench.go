package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"liquidarch/internal/core"
)

// endToEndDefs are the metrics a --trace 0 run prints in its result line,
// with their units. Every workload reports every one of them.
var endToEndDefs = map[string]string{
	"setup_s":        "s",
	"tunes_per_s":    "1/s",
	"latency_p50_ms": "ms",
	"rss_peak_mb":    "MB",
}

// bench is one run of one workload: its inputs, its timed window and
// everything it records.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	root     string
	exp      *expected
	rng      *rand.Rand

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	// lat and tlat hold the untraced and traced request latencies in
	// milliseconds, by request group (cold-tune's programs, restart's
	// two shapes; one group for warm-serve).
	lat, tlat map[string][]float64
	setups    []time.Duration
	elapsed   time.Duration
	completed int
	qual      quality
	// models are solved again by the binlp probe of the traced run.
	models map[reqKey]*core.Model
	// notes are human-readable lines printed above the result line.
	notes  []string
	layers map[string]float64
}

func newBench(workload string, seed uint64, window time.Duration, traced bool, root string, exp *expected) *bench {
	return &bench{
		workload: workload,
		seed:     seed,
		window:   window,
		traced:   traced,
		root:     root,
		exp:      exp,
		rng:      rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		lat:      map[string][]float64{},
		tlat:     map[string][]float64{},
		models:   map[reqKey]*core.Model{},
		layers:   map[string]float64{},
	}
}

// setup performs the workload's set-up rounds times, timing each;
// setup_s reports their median and the last round serves the timed
// window. fn must release whatever the previous round built.
func (b *bench) setup(rounds int, fn func() error) error {
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setups = append(b.setups, time.Since(t0))
	}
	return nil
}

// done records one completed request of the timed window. err is the
// request's failure, including a wrong answer.
func (b *bench) done(group string, lat time.Duration, traced bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if traced {
		b.tlat[group] = append(b.tlat[group], ms(lat))
	} else {
		b.lat[group] = append(b.lat[group], ms(lat))
	}
	if err != nil {
		b.fail(err)
	}
}

// failOutside counts a failure that is not a timed request (a set-up or probe
// answer that is wrong) against one more attempt.
func (b *bench) failOutside(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	b.fail(err)
}

func (b *bench) fail(err error) {
	b.failed++
	if len(b.failures) < 8 {
		b.failures = append(b.failures, err.Error())
	}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// keepModel remembers one model per request key for the binlp probe.
func (b *bench) keepModel(k reqKey, rep *core.Report) {
	if rep == nil || rep.Artifacts == nil || rep.Artifacts.Model == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.models[k] = rep.Artifacts.Model
}

// groupP50 is the mean of the groups' median latencies: with one group
// it is the plain median, and with several (cold-tune's five programs,
// restart's two request shapes) each group weighs equally, so the
// figure does not jump between the groups' medians as the request mix
// of a run shifts.
func groupP50(groups map[string][]float64) float64 {
	var sum float64
	n := 0
	for _, l := range groups {
		if len(l) > 0 {
			sum += percentile(l, 50)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func allLatencies(groups map[string][]float64) []float64 {
	var all []float64
	for _, l := range groups {
		all = append(all, l...)
	}
	return all
}

// endToEnd computes the --trace 0 metrics and notes each with its
// sample count.
func (b *bench) endToEnd() map[string]float64 {
	setups := make([]float64, len(b.setups))
	for i, d := range b.setups {
		setups[i] = d.Seconds()
	}
	all := allLatencies(b.lat)
	m := map[string]float64{
		"setup_s":        percentile(setups, 50),
		"tunes_per_s":    float64(b.completed) / b.elapsed.Seconds(),
		"latency_p50_ms": groupP50(b.lat),
		"rss_peak_mb":    peakRSSMB(),
	}
	b.note("setup_s %.4f s: median of %d set-ups", m["setup_s"], len(setups))
	b.note("tunes_per_s %.4f 1/s: %d requests in %.3f s", m["tunes_per_s"], b.completed, b.elapsed.Seconds())
	groups := make([]string, 0, len(b.lat))
	for g := range b.lat {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		l := b.lat[g]
		if g == "" {
			g = "all"
		}
		b.note("latency_p50_ms %.4f ms over %s requests, n=%d", percentile(l, 50), g, len(l))
	}
	if len(all) >= 1000 {
		b.note("latency_p99_ms %.4f ms, n=%d", percentile(all, 99), len(all))
	} else {
		b.note("latency_p99_ms not reported: n=%d < 1000 requests (max %.4f ms)", len(all), percentile(all, 100))
	}
	b.qual.note(b)
	return m
}

// quality accumulates the deterministic answer-quality figures of the
// reports a run checked. A change meant only for speed leaves them
// identical; the expected-value check turns any change into failures.
type quality struct {
	mu                   sync.Mutex
	modelErr, gain, rErr float64
	nModel, nGain, nRErr int
}

func (q *quality) add(rep *core.Report) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if v := rep.Validation; v != nil {
		q.modelErr += math.Abs(rep.Recommendation.Predicted.RuntimePct - v.RuntimePct)
		q.nModel++
		q.gain += -v.RuntimePct
		q.nGain++
	}
	if r := rep.Replay; r != nil && rep.Base.Cycles > 0 {
		q.rErr += math.Abs(r.ErrorPct)
		q.nRErr++
		q.gain += 100 * (float64(rep.Base.Cycles) - float64(r.ActualCycles)) / float64(rep.Base.Cycles)
		q.nGain++
	}
}

func (q *quality) values() (modelErr, gain, replayErr float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return div(q.modelErr, float64(q.nModel)), div(q.gain, float64(q.nGain)), div(q.rErr, float64(q.nRErr))
}

func (q *quality) note(b *bench) {
	m, g, r := q.values()
	b.note("model_err_pct %.4f %% over %d validated reports; tuned_gain_pct %.4f %% over %d; replay_err_pct %.4f %% over %d phase reports",
		m, q.nModel, g, q.nGain, r, q.nRErr)
}

// percentile returns the nearest-rank p-th percentile of xs (0 when
// empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func pct(part, whole float64) float64 { return 100 * div(part, whole) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a reading of the Go runtime's cumulative allocation
// and CPU counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// runtimeLayers records go.alloc_kb_per_req and go.gc_cpu_pct between
// two samples spanning requests requests.
func (b *bench) runtimeLayers(from, to runtimeSample, requests int) {
	b.layers["go.alloc_kb_per_req"] = div(to.allocBytes-from.allocBytes, 1024*float64(requests))
	b.layers["go.gc_cpu_pct"] = pct(to.gcCPU-from.gcCPU, to.totalCPU-from.totalCPU)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// printHost records the host and toolchain the result was measured on.
// Outside a git checkout the commit is unknown, so the line also carries
// a digest of the Go sources and module files under the working
// directory.
func printHost() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s sources=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, commit, sourceDigest("."))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root, skipping
// dot-directories (the build output among them), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
