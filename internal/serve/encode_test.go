package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"liquidarch/internal/core"
	"liquidarch/internal/measure"
)

// TestUnencodableStatusAnswers500: a status JSON cannot hold (here a NaN
// weight in its result) is answered with a 500 and an error body on
// GET, and ends the ndjson stream with an error line; both failures are
// logged and counted in the metrics. Responses that encode keep their
// exact bytes: indented, with a trailing newline.
func TestUnencodableStatusAnswers500(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	s := New(Options{
		Workers:  1,
		Provider: measure.NewCache(measure.Simulator{}, 8),
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	j := &job{updated: make(chan struct{})}
	j.status = JobStatus{ID: "nan", State: StateDone, Result: &core.Report{Weights: core.Weights{W1: math.NaN(), W2: 1}}}
	s.mu.Lock()
	s.jobs["nan"] = j
	s.mu.Unlock()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	errorBody := func(body string) string {
		t.Helper()
		var doc map[string]string
		if err := json.Unmarshal([]byte(body), &doc); err != nil || doc["error"] == "" {
			t.Fatalf("body %q is not an error document (%v)", body, err)
		}
		return doc["error"]
	}

	code, body := get("/v1/jobs/nan")
	if code != http.StatusInternalServerError {
		t.Errorf("GET: status %d, want 500", code)
	}
	if msg := errorBody(body); !strings.Contains(msg, "NaN") {
		t.Errorf("GET: error %q does not name the value", msg)
	}

	code, body = get("/v1/jobs/nan/stream")
	if code != http.StatusOK {
		t.Errorf("stream: status %d, want 200", code)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 1 {
		t.Fatalf("stream: %d lines, want one error line: %q", len(lines), body)
	}
	errorBody(lines[0])

	if code, body = get("/v1/healthz"); code != http.StatusOK || body != "{\n  \"status\": \"ok\"\n}\n" {
		t.Errorf("healthz: status %d, body %q", code, body)
	}
	var m Metrics
	_, body = get("/v1/metrics")
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.EncodeErrors != 2 {
		t.Errorf("metrics count %d encoding failures, want 2", m.EncodeErrors)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := len(logged); n != 2 {
		t.Errorf("%d log lines, want 2: %q", n, logged)
	}
}
