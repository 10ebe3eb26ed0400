package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"liquidarch/internal/binlp"
	"liquidarch/internal/config"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
)

// layerDefs are the metrics a --trace 1 run prints in its result line,
// with their units. README.md maps each to the end-to-end metric it
// should move. A layer a workload does not exercise reads 0.
var layerDefs = map[string]string{
	"platform.sim_runs":                "count",
	"platform.parallel_runs":           "count",
	"platform.sim_busy_ms":             "ms",
	"platform.ns_per_instr":            "ns",
	"platform.sim_concurrency":         "ratio",
	"platform.sim_minstr_per_s":        "Minstr/s",
	"platform.engine_build_us":         "us",
	"platform.first_run_ns_per_instr":  "ns",
	"platform.steady_ns_per_instr":     "ns",
	"platform.superblock_hit_rate_pct": "%",
	"platform.replay_ms":               "ms",
	"phase.detect_ms":                  "ms",
	"measure.cache_hit_pct":            "%",
	"measure.cache_hit_us":             "us",
	"measure.store_load_us":            "us",
	"measure.store_loads":              "count",
	"measure.store_save_us":            "us",
	"measure.store_saves":              "count",
	"core.model_build_ms":              "ms",
	"core.artifact_load_ms":            "ms",
	"core.model_hit_pct":               "%",
	"core.validate_ms":                 "ms",
	"core.tune_self_ms":                "ms",
	"binlp.solve_us":                   "us",
	"binlp.nodes":                      "count",
	"serve.queue_wait_ms":              "ms",
	"serve.exec_ms":                    "ms",
	"serve.http_ms":                    "ms",
	"serve.dedup_pct":                  "%",
	"go.alloc_kb_per_req":              "KB",
	"go.gc_cpu_pct":                    "%",
	"obs.trace_overhead_pct":           "%",
	"unattributed_pct":                 "%",
	"stage.model_build_pct":            "%",
	"stage.model_disk_pct":             "%",
	"stage.model_shared_pct":           "%",
	"stage.solve_pct":                  "%",
	"stage.validate_pct":               "%",
	"stage.replay_online_pct":          "%",
	"stage.serve_pct":                  "%",
	"quality.model_err_pct":            "%",
	"quality.tuned_gain_pct":           "%",
	"quality.replay_err_pct":           "%",
}

// stages are the named parts a traced request's latency breaks into, in
// print order; "other" is the remainder no span covers.
var stages = []string{"model_build", "model_disk", "model_shared", "solve", "validate", "replay_online", "serve", "other"}

// spanSummary is what one request's trace says about its stages.
type spanSummary struct {
	tune, model, solve, validate, replay, detect time.Duration
	source                                       string
	// modelSims is the busy time of the simulations inside the model
	// stage, which run in parallel.
	modelSims time.Duration
	cacheHits []time.Duration
}

// summarize reads the stage spans core.Session.Tune emits ("tune" and
// its children), the "measure" spans of measure.Cache and the
// benchmark's own "sim" spans.
func summarize(recs []obs.SpanRecord) spanSummary {
	parent := make(map[uint64]uint64, len(recs))
	name := make(map[uint64]string, len(recs))
	var root uint64
	for _, r := range recs {
		parent[r.ID], name[r.ID] = r.Parent, r.Name
		if r.Name == "tune" && r.Parent == 0 {
			root = r.ID
		}
	}
	// stageOf names the child of the root a span descends from.
	stageOf := func(id uint64) string {
		for p := parent[id]; p != 0; id, p = p, parent[p] {
			if p == root {
				return name[id]
			}
		}
		return ""
	}
	var s spanSummary
	for _, r := range recs {
		d := r.Duration()
		switch {
		case r.ID == root:
			s.tune = d
		case r.Parent == root:
			switch r.Name {
			case "model":
				s.model += d
				if a, ok := r.Attr("source"); ok {
					s.source = a.Str
				}
			case "solve":
				s.solve += d
			case "validate":
				s.validate += d
			case "replay", "online":
				s.replay += d
			}
		case r.Name == "phase.detect":
			s.detect += d
		case r.Name == "sim" && stageOf(r.ID) == "model":
			s.modelSims += d
		case r.Name == "measure":
			if a, ok := r.Attr("outcome"); ok && a.Str == "hit" {
				s.cacheHits = append(s.cacheHits, d)
			}
		}
	}
	return s
}

// flatten turns a span tree back into records.
func flatten(nodes []*obs.SpanNode, out []obs.SpanRecord) []obs.SpanRecord {
	for _, n := range nodes {
		out = append(out, n.SpanRecord)
		out = flatten(n.Children, out)
	}
	return out
}

// attribution accumulates the traced requests' stage times.
type attribution struct {
	mu       sync.Mutex
	requests int
	wall     time.Duration
	stage    map[string]time.Duration
	// per-layer sums and sample counts
	sum map[string]float64
	n   map[string]int
}

func newAttribution() *attribution {
	return &attribution{stage: map[string]time.Duration{}, sum: map[string]float64{}, n: map[string]int{}}
}

func (a *attribution) addLocked(name string, v float64) {
	a.sum[name] += v
	a.n[name]++
}

func (a *attribution) mean(name string) float64 {
	return div(a.sum[name], float64(a.n[name]))
}

// request attributes one traced request of latency wall: serve is the
// serving overhead around the pipeline (queue wait and HTTP; zero for
// in-process requests), s the pipeline's own spans.
func (a *attribution) request(wall, serve time.Duration, s spanSummary, phase bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.requests++
	a.wall += wall
	named := map[string]time.Duration{
		"solve":         s.solve,
		"validate":      s.validate,
		"replay_online": s.replay,
		"serve":         serve,
	}
	if s.source != "" {
		named["model_"+s.source] = s.model
	}
	covered := time.Duration(0)
	for k, d := range named {
		a.stage[k] += d
		covered += d
	}
	a.stage["other"] += wall - covered
	switch s.source {
	case "build":
		a.addLocked("core.model_build_ms", ms(s.model))
		a.addLocked("model_wall_ms", ms(s.model))
		a.addLocked("model_sims_ms", ms(s.modelSims))
	case "disk":
		a.addLocked("core.artifact_load_ms", ms(s.model))
	}
	hit := 0.0
	if s.source != "build" {
		hit = 100
	}
	a.addLocked("core.model_hit_pct", hit)
	if s.validate > 0 {
		a.addLocked("core.validate_ms", ms(s.validate))
	}
	if s.tune > 0 {
		a.addLocked("core.tune_self_ms", ms(s.tune-s.model-s.solve-s.validate-s.replay))
	}
	if phase {
		a.addLocked("platform.replay_ms", ms(s.replay))
		a.addLocked("phase.detect_ms", ms(s.detect))
	}
	for _, d := range s.cacheHits {
		a.addLocked("measure.cache_hit_us", us(d))
	}
}

// layers writes the attributed stage shares and span-derived layer
// metrics into b.layers and notes the breakdown.
func (a *attribution) layers(b *bench) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, name := range []string{"core.model_build_ms", "core.artifact_load_ms", "core.model_hit_pct",
		"core.validate_ms", "core.tune_self_ms", "platform.replay_ms", "phase.detect_ms", "measure.cache_hit_us"} {
		b.layers[name] = a.mean(name)
	}
	// The model stage's simulations run in parallel: their busy time over
	// the stage's wall time is the concurrency they achieved, so busy ÷
	// concurrency adds up to the stage's share of the wall.
	b.layers["platform.sim_concurrency"] = div(a.sum["model_sims_ms"], a.sum["model_wall_ms"])
	line := fmt.Sprintf("stages over %d traced requests (%.3f ms mean wall):", a.requests, div(ms(a.wall), float64(a.requests)))
	for _, st := range stages {
		share := pct(float64(a.stage[st]), float64(a.wall))
		if st == "other" {
			b.layers["unattributed_pct"] = share
		} else {
			b.layers["stage."+st+"_pct"] = share
		}
		line += fmt.Sprintf(" %s %.3f ms (%.2f%%)", st, div(ms(a.stage[st]), float64(a.requests)), share)
	}
	b.note("%s", line)
	if a.sum["model_sims_ms"] > 0 {
		b.note("model stage: sim busy %.3f ms at concurrency %.3f = %.3f ms wall per build",
			a.mean("model_sims_ms"), b.layers["platform.sim_concurrency"], a.mean("model_wall_ms"))
	}
}

// providerLayers writes the measurement-stack layer metrics for requests
// requests over a window of wall time.
func (b *bench) providerLayers(c stackCounters, requests int, wall time.Duration) {
	n := float64(requests)
	b.layers["platform.sim_runs"] = div(float64(c.simRuns), n)
	b.layers["platform.sim_busy_ms"] = div(ms(c.simBusy), n)
	b.layers["platform.ns_per_instr"] = div(float64(c.simBusy.Nanoseconds()), float64(c.simInstr))
	b.layers["platform.sim_minstr_per_s"] = div(float64(c.simInstr)/1e6, wall.Seconds())
	b.layers["measure.store_loads"] = div(float64(c.loads), n)
	b.layers["measure.store_load_us"] = div(us(c.loadTime), float64(c.loads))
	b.layers["measure.store_saves"] = div(float64(c.saves), n)
	b.layers["measure.store_save_us"] = div(us(c.saveTime), float64(c.saves))
	b.layers["measure.cache_hit_pct"] = pct(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses))
}

// traceOverhead compares the traced and untraced requests the traced run
// interleaves.
func (b *bench) traceOverhead() {
	on, off := groupP50(b.tlat), groupP50(b.lat)
	b.layers["obs.trace_overhead_pct"] = pct(on-off, off)
	b.note("trace overhead: traced p50 %.4f ms (n=%d) vs untraced p50 %.4f ms (n=%d)",
		on, len(allLatencies(b.tlat)), off, len(allLatencies(b.lat)))
}

func (b *bench) qualityLayers() {
	m, g, r := b.qual.values()
	b.layers["quality.model_err_pct"] = m
	b.layers["quality.tuned_gain_pct"] = g
	b.layers["quality.replay_err_pct"] = r
}

// probeEngines times platform.NewEngine and a first and a steady
// Engine.Run of every program on the base configuration, and checks that
// both runs produce the golden checksum and identical profiles.
func (b *bench) probeEngines() {
	const reps = 3
	var build, first, steady []float64
	for _, app := range apps {
		bm, _ := progs.ByName(app)
		prog, err := bm.Assemble(scale)
		if err != nil {
			b.failOutside(fmt.Errorf("engine probe %s: %w", app, err))
			continue
		}
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			e, err := platform.NewEngine(prog, config.Default(), platform.Options{})
			if err != nil {
				b.failOutside(fmt.Errorf("engine probe %s: %w", app, err))
				break
			}
			t1 := time.Now()
			r1, err1 := e.Run()
			t2 := time.Now()
			r2, err2 := e.Run()
			t3 := time.Now()
			switch {
			case err1 != nil || err2 != nil:
				b.failOutside(fmt.Errorf("engine probe %s: %v %v", app, err1, err2))
			case r1.Checksum != bm.Golden(scale) || r1.ExitCode != 0:
				b.failOutside(fmt.Errorf("engine probe %s: checksum %#x, golden %#x", app, r1.Checksum, bm.Golden(scale)))
			case r1.Stats != r2.Stats:
				b.failOutside(fmt.Errorf("engine probe %s: steady run profile differs from the first", app))
			default:
				instr := float64(r1.Stats.Instructions)
				build = append(build, us(t1.Sub(t0)))
				first = append(first, float64(t2.Sub(t1).Nanoseconds())/instr)
				steady = append(steady, float64(t3.Sub(t2).Nanoseconds())/instr)
			}
		}
	}
	b.layers["platform.engine_build_us"] = percentile(build, 50)
	b.layers["platform.first_run_ns_per_instr"] = percentile(first, 50)
	b.layers["platform.steady_ns_per_instr"] = percentile(steady, 50)
	b.note("engine probe over %d runs per program: build %.1f us, first run %.3f ns/instr, steady run %.3f ns/instr (medians)",
		reps, b.layers["platform.engine_build_us"], b.layers["platform.first_run_ns_per_instr"], b.layers["platform.steady_ns_per_instr"])
}

// probeSolver times binlp.Solve(model.Formulate(w)) over the models the
// run's reports carried and eight weightings drawn from the seed, and
// checks each solution decodes to the recorded recommendation.
func (b *bench) probeSolver() {
	const reps = 5
	draws := make([]int, 8)
	for i := range draws {
		draws[i] = b.rng.IntN(len(weightGrid))
	}
	keys := make([]reqKey, 0, len(b.models))
	for k := range b.models {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	seen := map[string]bool{}
	var times, nodes []float64
	for _, k := range keys {
		if seen[k.App] {
			continue // one model per program: models do not depend on weights
		}
		seen[k.App] = true
		m := b.models[k]
		for _, wi := range draws {
			w := weightGrid[wi]
			want := (*b.exp)[reqKey{App: k.App, W: w, Phase: k.Phase}.String()].Config
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				sol, err := binlp.Solve(m.Formulate(w), binlp.Options{})
				d := time.Since(t0)
				if err != nil {
					b.failOutside(fmt.Errorf("solver probe %s: %w", k.App, err))
					break
				}
				cfg, err := m.Space.Decode(sol.X)
				if err != nil || cfg.String() != want {
					b.failOutside(fmt.Errorf("solver probe %s %v: solution differs from the recorded recommendation", k.App, w))
					break
				}
				times = append(times, us(d))
				nodes = append(nodes, float64(sol.Nodes))
			}
		}
	}
	b.layers["binlp.solve_us"] = percentile(times, 50)
	var sum float64
	for _, n := range nodes {
		sum += n
	}
	b.layers["binlp.nodes"] = div(sum, float64(len(nodes)))
	b.note("solver probe: %d solves over %d programs, median %.2f us, mean %.1f nodes",
		len(times), len(seen), b.layers["binlp.solve_us"], b.layers["binlp.nodes"])
}

// platformLayers records the process-wide platform counter deltas.
func (b *bench) platformLayers(from, to platform.TuningCounters) {
	b.layers["platform.parallel_runs"] = float64(to.ParallelRuns - from.ParallelRuns)
	hits := float64(to.SuperblockHits - from.SuperblockHits)
	deopts := float64(to.SuperblockDeopts - from.SuperblockDeopts)
	b.layers["platform.superblock_hit_rate_pct"] = pct(hits, hits+deopts)
}
