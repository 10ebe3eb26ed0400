package serve_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"liquidarch/internal/core"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/serve"
)

// walkSpans visits every node of a span forest depth-first.
func walkSpans(nodes []*obs.SpanNode, visit func(*obs.SpanNode)) {
	for _, n := range nodes {
		visit(n)
		walkSpans(n.Children, visit)
	}
}

// TestTraceEndpoint is the observability acceptance test: a finished
// job's GET /v1/trace/{id} must return a complete span tree rooted at
// "tune", with a cache-outcome attribute on every measurement span and
// a source attribute on the model span.
func TestTraceEndpoint(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)

	st := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	st = waitDone(t, ts, st.ID)
	if st.State != serve.StateDone {
		t.Fatalf("job state = %s, error = %s", st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/trace/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace: status %d", resp.StatusCode)
	}
	var doc serve.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Complete {
		t.Error("trace of a done job not marked complete")
	}
	if doc.Dropped != 0 {
		t.Errorf("trace dropped %d spans", doc.Dropped)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "tune" {
		t.Fatalf("trace roots = %v, want single tune root", len(doc.Spans))
	}

	var measures, model, solve int
	walkSpans(doc.Spans, func(n *obs.SpanNode) {
		switch n.Name {
		case "measure":
			measures++
			a, ok := n.Attr("outcome")
			if !ok {
				t.Errorf("measure span %d has no outcome attribute", n.ID)
			} else if a.Str != "hit" && a.Str != "wait" && a.Str != "miss" {
				t.Errorf("measure span %d outcome = %q", n.ID, a.Str)
			}
			if _, ok := n.Attr("config"); !ok {
				t.Errorf("measure span %d has no config attribute", n.ID)
			}
		case "model":
			model++
			if a, ok := n.Attr("source"); !ok || a.Str != "build" {
				t.Errorf("model span source = %v, want build", a.Str)
			}
		case "solve":
			solve++
		}
	})
	// A dcache-space tune measures the base, one run per variable and
	// the validation run.
	if measures < 3 {
		t.Errorf("trace has %d measure spans, want several", measures)
	}
	if model != 1 || solve != 1 {
		t.Errorf("trace has %d model / %d solve spans, want 1 each", model, solve)
	}

	// A second identical job shares the model layer: its trace must say
	// so instead of claiming a fresh build.
	st2 := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	st2 = waitDone(t, ts, st2.ID)
	if st2.State != serve.StateDone {
		t.Fatalf("second job state = %s, error = %s", st2.State, st2.Error)
	}
	doc2 := getTrace(t, ts, st2.ID)
	found := false
	walkSpans(doc2.Spans, func(n *obs.SpanNode) {
		if n.Name != "model" {
			return
		}
		found = true
		if a, ok := n.Attr("source"); !ok || a.Str != "shared" {
			t.Errorf("warm model span source = %v, want shared", a.Str)
		}
	})
	if !found {
		t.Error("warm trace has no model span")
	}
}

func getTrace(t *testing.T, ts *httptest.Server, id string) serve.TraceDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: status %d", id, resp.StatusCode)
	}
	var doc serve.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestTraceStream reads the ndjson span stream of a job end to end: the
// stream must deliver every span of the pipeline and terminate when the
// trace finishes.
func TestTraceStream(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t)

	st := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	resp, err := http.Get(ts.URL + "/v1/trace/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/{id}/stream: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("stream content type = %q", got)
	}

	names := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		names[rec.Name]++
	}
	// The stream ends because the trace finished, not because the job
	// table forgot the job — the scanner returning is the assertion that
	// the server closed the stream.
	if names["tune"] != 1 {
		t.Errorf("stream delivered %d tune spans, want 1", names["tune"])
	}
	if names["measure"] == 0 {
		t.Error("stream delivered no measure spans")
	}

	if st := waitDone(t, ts, st.ID); st.State != serve.StateDone {
		t.Fatalf("job state = %s, error = %s", st.State, st.Error)
	}
}

// TestTraceStreamOfJobThatNeverRan: the trace stream of a job that
// never runs — cancelled while queued behind a held job, or rejected as
// queue full — answers its headers at once and then ends, instead of
// hanging until a span that will never come.
func TestTraceStreamOfJobThatNeverRan(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	defer close(gate)
	s := serve.New(serve.Options{
		Workers:    1,
		QueueDepth: 1,
		Provider:   measure.NewCache(&gatedProvider{inner: measure.Simulator{}, gate: gate}, 256),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	req := serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"}
	held := postJob(t, ts, req)
	waitLeftQueue(t, s, held.ID)
	queued := postJob(t, ts, req)
	if code := postJobStatus(t, ts, req); code != http.StatusServiceUnavailable {
		t.Fatalf("submission past the queue: status %d, want 503", code)
	}
	rejected := ""
	for _, j := range s.Jobs() {
		if j.Error == "queue full" {
			rejected = j.ID
		}
	}
	if rejected == "" {
		t.Fatal("the rejected job is not in the job table")
	}

	client := &http.Client{Timeout: 30 * time.Second}
	open := func(id string) *http.Response {
		t.Helper()
		resp, err := client.Get(ts.URL + "/v1/trace/" + id + "/stream")
		if err != nil {
			t.Fatalf("trace stream of %s: %v", id, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace stream of %s: status %d", id, resp.StatusCode)
		}
		return resp
	}
	drain := func(id string, resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("trace stream of %s did not end: %v", id, err)
		}
	}
	// Headers arrive while the job still waits in the queue.
	queuedStream := open(queued.ID)
	if st := cancelJob(t, ts, queued.ID); st.State != serve.StateCancelled {
		t.Fatalf("queued job: %s after cancel", st.State)
	}
	drain(queued.ID, queuedStream)
	drain(rejected, open(rejected))
}

// TestSlowJobLog exercises the slow-job warning: with a tiny
// threshold every job is slow, and the log line must name the job's
// slowest stages.
func TestSlowJobLog(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var lines []string
	s := serve.New(serve.Options{
		Workers:          1,
		Provider:         measure.NewCache(measure.Simulator{}, 64),
		SlowJobThreshold: time.Nanosecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	st := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	if st = waitDone(t, ts, st.ID); st.State != serve.StateDone {
		t.Fatalf("job state = %s, error = %s", st.State, st.Error)
	}

	// The warning is logged before the job's terminal broadcast, so it
	// is visible once the job is done.
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow-job warnings = %d (%q), want 1", len(lines), lines)
	}
	line := lines[0]
	for _, want := range []string{"slow job", "app=arith", "model", "measure"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-job line %q missing %q", line, want)
		}
	}
}

// TestMetricsStages checks that traced jobs feed the per-stage
// latency aggregation under /v1/metrics.
func TestMetricsStages(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t)

	st := postJob(t, ts, serve.JobRequest{App: "arith", Scale: "tiny", Space: "dcache"})
	if st = waitDone(t, ts, st.ID); st.State != serve.StateDone {
		t.Fatalf("job state = %s, error = %s", st.State, st.Error)
	}

	m := s.MetricsSnapshot()
	for _, stage := range []string{"tune", "model", "measure", "solve"} {
		ss, ok := m.Stages[stage]
		if !ok {
			t.Errorf("metrics stages missing %q (have %v)", stage, m.Stages)
			continue
		}
		if ss.Count == 0 || ss.P50Ms < 0 || ss.MaxMs < ss.MinMs {
			t.Errorf("stage %q stats implausible: %+v", stage, ss)
		}
	}
	if m.Stages["measure"].Count <= m.Stages["tune"].Count {
		t.Errorf("measure count %d not above tune count %d",
			m.Stages["measure"].Count, m.Stages["tune"].Count)
	}
}

// TestMetricsFieldsSerialized walks the Metrics document by reflection
// and fails when any exported field of a liquidarch struct lacks an
// explicit json tag — the guard that a freshly added counter cannot
// silently fall out of (or into inconsistent casing in) the /v1/metrics
// serialization.
func TestMetricsFieldsSerialized(t *testing.T) {
	t.Parallel()
	seen := map[reflect.Type]bool{}
	var check func(typ reflect.Type, path string)
	check = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			check(typ.Elem(), path)
		case reflect.Struct:
		default:
			return
		}
		if typ.Kind() != reflect.Struct || !strings.Contains(typ.PkgPath(), "liquidarch") || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			where := path + "." + f.Name
			if _, ok := f.Tag.Lookup("json"); !ok {
				t.Errorf("%s (%s) has no json tag — it would serialize under its Go name", where, typ)
			}
			check(f.Type, where)
		}
	}
	check(reflect.TypeOf(serve.Metrics{}), "Metrics")
	if len(seen) < 5 {
		t.Fatalf("walked only %d struct types — the reflection walk is broken", len(seen))
	}
	// Cache and Models hang off Metrics through pointer fields the walk
	// must chase: require the structs behind them were actually visited.
	for _, want := range []reflect.Type{reflect.TypeOf(measure.CacheStats{}), reflect.TypeOf(core.ModelCacheStats{})} {
		if !seen[want] {
			t.Fatalf("reflection walk never reached %s behind a pointer field", want)
		}
	}
}
