package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/serve"
)

// window brackets a workload's timed window and, in the traced run,
// turns what it recorded into the per-layer metrics.
type window struct {
	b     *bench
	attr  *attribution
	start time.Time
	// paused is time spent inside the window that is not the workload's.
	paused time.Duration
	rt     runtimeSample
	ctr    platform.TuningCounters
}

func (b *bench) openWindow() *window {
	return &window{b: b, attr: newAttribution(), start: time.Now(), rt: sampleRuntime(), ctr: platform.Counters()}
}

func (w *window) elapsed() time.Duration { return time.Since(w.start) - w.paused }

// close ends the window after requests requests whose provider layers
// counted c, then runs the traced run's probes.
func (w *window) close(requests int, c stackCounters) {
	b := w.b
	b.elapsed, b.completed = w.elapsed(), requests
	if !b.traced {
		return
	}
	b.runtimeLayers(w.rt, sampleRuntime(), requests)
	b.providerLayers(c, requests, b.elapsed)
	w.attr.layers(b)
	b.traceOverhead()
	b.qualityLayers()
	b.probeEngines()
	b.probeSolver()
	b.platformLayers(w.ctr, platform.Counters())
}

// tunedStores opens a fresh measurement store and model store under dir,
// as a daemon started with -cache-dir and -model-dir does.
func tunedStores(dir string) (*measure.Store, *core.ModelStore, error) {
	st, err := measure.NewStore(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, nil, err
	}
	ms, err := core.NewModelStore(filepath.Join(dir, "models"))
	if err != nil {
		return nil, nil, err
	}
	return st, ms, nil
}

// traceCtx installs a fresh tracer on ctx when traced.
func traceCtx(ctx context.Context, traced bool) (context.Context, *obs.Tracer) {
	if !traced {
		return ctx, nil
	}
	tr := obs.NewTracer(obs.TracerOptions{})
	return obs.WithTracer(ctx, tr), tr
}

// runColdTune drives first-time requests: one client, every request on a
// fresh session over fresh stores, rotating through the five programs.
func runColdTune(b *bench) error {
	setup := func() error {
		for _, app := range apps {
			bm, _ := progs.ByName(app)
			prog, err := bm.Assemble(scale)
			if err != nil {
				return err
			}
			rep, err := platform.Run(prog, config.Default())
			if err != nil {
				return err
			}
			if rep.Checksum != bm.Golden(scale) {
				return fmt.Errorf("%s base run: checksum %#x, golden %#x", app, rep.Checksum, bm.Golden(scale))
			}
		}
		return nil
	}
	// The set-up takes a fraction of a second, so the host's speed at that
	// moment would decide its median. Besides the rounds before the window
	// it is therefore repeated after every request, off the window's
	// clock, and its median samples the whole run as the window does.
	if err := b.setup(3, setup); err != nil {
		return err
	}
	w := b.openWindow()
	var total stackCounters
	i := 0
	// Whole rotations only, so every program weighs the same in every
	// run: the window ends at the first rotation boundary past --seconds.
	for ; i%len(apps) != 0 || i == 0 || w.elapsed() < b.window; i++ {
		app := apps[i%len(apps)]
		k := reqKey{App: app, W: weightGrid[b.rng.IntN(len(weightGrid))], Phase: app == "mix"}
		c, err := b.coldRequest(k, b.traced && i%2 == 0, w.attr)
		if err != nil {
			return err
		}
		total = total.plus(c, 1)
		t0 := time.Now()
		if err := b.setup(1, setup); err != nil {
			return err
		}
		w.paused += time.Since(t0)
	}
	w.close(i, total)
	b.note("cold-tune: %d simulations, sim_minstr_per_s %.3f Minstr/s over %.3f s",
		total.simRuns, float64(total.simInstr)/1e6/b.elapsed.Seconds(), b.elapsed.Seconds())
	return nil
}

// coldRequest tunes k on a fresh session and stores and returns what the
// provider layers counted. Its error is an environment failure; a wrong
// answer is recorded as a failed request.
func (b *bench) coldRequest(k reqKey, traced bool, attr *attribution) (stackCounters, error) {
	dir, err := b.scratch("cold-")
	if err != nil {
		return stackCounters{}, err
	}
	defer os.RemoveAll(dir)
	st, ms, err := tunedStores(dir)
	if err != nil {
		return stackCounters{}, err
	}
	s := newStack(st)
	sess := core.NewSession(core.SessionOptions{Provider: s.cache, ModelStore: ms, MeasureStore: st})
	ctx, tr := traceCtx(context.Background(), traced)
	t0 := time.Now()
	rep, err := sess.Tune(ctx, k.request())
	lat := time.Since(t0)
	if err == nil {
		err = b.exp.check(k, rep)
	}
	if err == nil {
		b.qual.add(rep)
		b.keepModel(k, rep)
		if traced {
			tr.Finish()
			attr.request(lat, 0, summarize(tr.Snapshot().Spans), k.Phase)
		}
	}
	b.done(k.App, lat, traced, err)
	return s.counters(), nil
}

// serveRig is one in-process daemon behind a loopback HTTP server, with
// the in-process answers its results must equal.
type serveRig struct {
	dir    string
	stack  *stack
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	bodies map[reqKey][]byte
	ref    map[reqKey][]byte
	refRep map[reqKey]*core.Report
}

func (r *serveRig) close() {
	if r == nil {
		return
	}
	r.client.CloseIdleConnections()
	r.ts.Close()
	r.srv.Close()
	os.RemoveAll(r.dir)
}

// jobStatus is the part of serve.JobStatus the client reads; the result
// stays raw so it can be compared byte for byte.
type jobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
}

func (s *jobStatus) terminal() bool {
	return s.State == serve.StateDone || s.State == serve.StateFailed || s.State == serve.StateCancelled
}

// newServeRig starts a daemon over a fresh stack and stores and runs the
// whole plain grid through it with two clients, so every model and
// validation run is resident, then tunes the grid in process over the
// same cache as the reference answers.
func newServeRig(b *bench) (*serveRig, error) {
	dir, err := b.scratch("serve-")
	if err != nil {
		return nil, err
	}
	st, ms, err := tunedStores(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := newStack(st)
	srv := serve.New(serve.Options{
		Workers: 2, Provider: s.cache, Store: st, ModelStore: ms,
		Logf: func(string, ...any) {},
	})
	r := &serveRig{
		dir:    dir,
		stack:  s,
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: time.Minute},
		bodies: map[reqKey][]byte{},
		ref:    map[reqKey][]byte{},
		refRep: map[reqKey]*core.Report{},
	}
	keys := plainGrid()
	for _, k := range keys {
		w1, w2, w3 := k.W.W1, k.W.W2, k.W.W3
		body, err := json.Marshal(serve.JobRequest{App: k.App, Scale: scale.String(), W1: &w1, W2: &w2, W3: &w3})
		if err != nil {
			r.close()
			return nil, err
		}
		r.bodies[k] = body
	}
	results := make([]jobStatus, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				results[i], _, errs[i] = r.do(r.bodies[keys[i]])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		r.close()
		return nil, err
	}
	sess := core.NewSession(core.SessionOptions{Provider: s.cache})
	for i, k := range keys {
		rep, err := sess.Tune(context.Background(), k.request())
		if err != nil {
			r.close()
			return nil, err
		}
		if err := b.exp.check(k, rep); err != nil {
			b.failOutside(err)
		}
		ref, err := json.Marshal(rep)
		if err != nil {
			r.close()
			return nil, err
		}
		r.ref[k], r.refRep[k] = ref, rep
		b.keepModel(k, rep)
		if err := r.compare(k, &results[i]); err != nil {
			b.failOutside(err)
		}
	}
	return r, nil
}

// do submits one job and reads its status stream until the job is
// terminal, returning the final status and the round trip (up to the
// failure, when it fails).
func (r *serveRig) do(body []byte) (st jobStatus, rtt time.Duration, err error) {
	t0 := time.Now()
	defer func() {
		if err != nil {
			rtt = time.Since(t0)
		}
	}()
	resp, err := r.client.Post(r.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	var sub jobStatus
	err = json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return st, 0, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	resp, err = r.client.Get(r.ts.URL + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for !st.terminal() {
		st = jobStatus{}
		if err := dec.Decode(&st); err != nil {
			return st, 0, fmt.Errorf("job %s stream: %w", sub.ID, err)
		}
	}
	rtt = time.Since(t0)
	io.Copy(io.Discard, resp.Body)
	return st, rtt, nil
}

// compare checks a daemon result against the in-process answer.
func (r *serveRig) compare(k reqKey, st *jobStatus) error {
	if st.State != serve.StateDone {
		return fmt.Errorf("%s: job %s %s: %s", k, st.ID, st.State, st.Error)
	}
	if !bytes.Equal(st.Result, r.ref[k]) {
		return fmt.Errorf("%s: job %s result differs from the in-process Session.Tune answer", k, st.ID)
	}
	return nil
}

// runWarmServe drives the interactive daemon path: two closed-loop
// clients against a warmed in-process daemon, cycling through the plain
// grid in seeded order.
func runWarmServe(b *bench) error {
	var rig *serveRig
	defer func() { rig.close() }()
	err := b.setup(3, func() error {
		rig.close()
		var err error
		rig, err = newServeRig(b)
		return err
	})
	if err != nil {
		return err
	}
	order := plainGrid()
	b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	sched0 := rig.srv.MetricsSnapshot().Scheduler
	c0 := rig.stack.counters()
	w := b.openWindow()
	deadline := w.start.Add(b.window)
	var next, finished atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				k := order[i%int64(len(order))]
				traced := b.traced && i%2 == 0
				sims := rig.stack.leaf.runs.Load()
				st, rtt, err := rig.do(rig.bodies[k])
				if err == nil {
					err = rig.compare(k, &st)
				}
				if n := rig.stack.leaf.runs.Load() - sims; n != 0 {
					err = errors.Join(err, fmt.Errorf("%s: %d simulations reached the simulator during the request", k, n))
				}
				if err == nil {
					b.qual.add(rig.refRep[k])
					if traced {
						rig.attribute(w.attr, &st, rtt)
					}
				}
				b.done("", rtt, traced, err)
				finished.Add(1)
			}
		}()
	}
	wg.Wait()
	c := rig.stack.counters().plus(c0, -1)
	w.close(int(finished.Load()), c)
	if b.traced {
		sched := rig.srv.MetricsSnapshot().Scheduler
		b.layers["serve.dedup_pct"] = pct(float64(sched.Deduped-sched0.Deduped), float64(sched.Submitted-sched0.Submitted))
		for _, name := range []string{"serve.queue_wait_ms", "serve.exec_ms", "serve.http_ms"} {
			b.layers[name] = w.attr.mean(name)
		}
	}
	return nil
}

// attribute splits one traced job's round trip into the serving
// overhead (queue wait and HTTP) and the pipeline stages of the daemon's
// own trace of the job.
func (r *serveRig) attribute(a *attribution, st *jobStatus, rtt time.Duration) {
	doc, err := r.srv.Trace(st.ID)
	if err != nil || st.Started == nil || st.Finished == nil {
		return
	}
	started := *st.Started
	if started.Before(st.Created) {
		started = st.Created // joined a running flight
	}
	queue := started.Sub(st.Created)
	exec := st.Finished.Sub(started)
	httpTime := rtt - st.Finished.Sub(st.Created)
	a.request(rtt, queue+httpTime, summarize(flatten(doc.Spans, nil)), false)
	a.mu.Lock()
	a.addLocked("serve.queue_wait_ms", ms(queue))
	a.addLocked("serve.exec_ms", ms(exec))
	a.addLocked("serve.http_ms", ms(httpTime))
	a.mu.Unlock()
}

// restartRig holds the durable tiers a first replica filled.
type restartRig struct {
	dir    string
	st     *measure.Store
	ms     *core.ModelStore
	ref    map[reqKey][]byte
	refRep map[reqKey]*core.Report
}

// newRestartRig tunes the whole plain grid into fresh stores.
func newRestartRig(b *bench) (*restartRig, error) {
	dir, err := b.scratch("restart-")
	if err != nil {
		return nil, err
	}
	st, ms, err := tunedStores(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r := &restartRig{dir: dir, st: st, ms: ms, ref: map[reqKey][]byte{}, refRep: map[reqKey]*core.Report{}}
	s := newStack(st)
	sess := core.NewSession(core.SessionOptions{Provider: s.cache, ModelStore: ms, MeasureStore: st})
	for _, k := range plainGrid() {
		rep, err := sess.Tune(context.Background(), k.request())
		if err == nil {
			r.ref[k], err = json.Marshal(rep)
		}
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if err := b.exp.check(k, rep); err != nil {
			b.failOutside(err)
		}
		r.refRep[k] = rep
		b.keepModel(k, rep)
	}
	return r, nil
}

// runRestart drives a restarted replica: every request builds a fresh
// session over the durable tiers set-up filled, alternating the artifact
// shape (model store wired: one artifact read) and the store shape (no
// model store: the model is rebuilt from the measurement store).
func runRestart(b *bench) error {
	var rig *restartRig
	defer func() {
		if rig != nil {
			os.RemoveAll(rig.dir)
		}
	}()
	err := b.setup(3, func() error {
		if rig != nil {
			os.RemoveAll(rig.dir)
		}
		var err error
		rig, err = newRestartRig(b)
		return err
	})
	if err != nil {
		return err
	}
	keys := plainGrid()
	w := b.openWindow()
	deadline := w.start.Add(b.window)
	var total stackCounters
	i := 0
	for ; time.Now().Before(deadline); i++ {
		k := keys[b.rng.IntN(len(keys))]
		artifact := (uint64(i)+b.seed)%2 == 0
		traced := b.traced && (i/2)%2 == 0
		total = total.plus(b.restartRequest(rig, k, artifact, traced, w.attr), 1)
	}
	w.close(i, total)
	return nil
}

// restartRequest tunes k on a fresh session over the filled stores and
// returns what the provider layers counted.
func (b *bench) restartRequest(rig *restartRig, k reqKey, artifact, traced bool, attr *attribution) stackCounters {
	group := "store-shape"
	if artifact {
		group = "artifact-shape"
	}
	ctx, tr := traceCtx(context.Background(), traced)
	t0 := time.Now()
	s := newStack(rig.st)
	opts := core.SessionOptions{Provider: s.cache}
	if artifact {
		opts.ModelStore, opts.MeasureStore = rig.ms, rig.st
	}
	sess := core.NewSession(opts)
	rep, err := sess.Tune(ctx, k.request())
	lat := time.Since(t0)
	if err == nil {
		var got []byte
		if got, err = json.Marshal(rep); err == nil && !bytes.Equal(got, rig.ref[k]) {
			err = fmt.Errorf("%s (%s): answer differs from the first replica's", k, group)
		}
	}
	c := s.counters()
	if c.simRuns != 0 {
		err = errors.Join(err, fmt.Errorf("%s (%s): %d simulations reached the simulator", k, group, c.simRuns))
	}
	if builds := sess.ModelStats().Builds; artifact && builds != 0 {
		err = errors.Join(err, fmt.Errorf("%s: %d model builds in an artifact-shape request", k, builds))
	}
	if err == nil {
		b.qual.add(rig.refRep[k])
		if traced {
			tr.Finish()
			attr.request(lat, 0, summarize(tr.Snapshot().Spans), false)
		}
	}
	b.done(group, lat, traced, err)
	return c
}
