package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"liquidarch/internal/core"
	"liquidarch/internal/serve"
)

// parseWeightSweep parses a -sweep-weights list: comma-separated
// weightings, each "w1:w2" or "w1:w2:w3".
func parseWeightSweep(s string) ([]core.Weights, error) {
	if s == "" {
		return nil, nil
	}
	var out []core.Weights
	for _, item := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("bad weighting %q: want w1:w2 or w1:w2:w3", item)
		}
		var w core.Weights
		for i, dst := range []*float64{&w.W1, &w.W2, &w.W3}[:len(parts)] {
			v, err := strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
			if err == nil {
				err = finiteWeight(v)
			}
			if err != nil {
				return nil, fmt.Errorf("bad weighting %q: %v", item, err)
			}
			*dst = v
		}
		out = append(out, w)
	}
	return out, nil
}

// finiteWeight rejects a NaN or infinite weight, which no objective can
// use: the solver would fail on it only after the whole model build.
func finiteWeight(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("weight %v is not finite", v)
	}
	return nil
}

// runSweep executes a local weight sweep as one session batch: the
// first weighting builds the model, the rest reuse it and only solve.
func runSweep(ctx context.Context, sess *core.Session, base core.Request, ws []core.Weights, jsonOut bool, stdout, stderr, progress io.Writer) int {
	fmt.Fprintf(progress, "sweeping %d weightings of %s (one model build, %d solves)...\n",
		len(ws), base.App, len(ws))
	reqs := make([]core.Request, len(ws))
	for i, w := range ws {
		r := base
		r.Weights = w
		reqs[i] = r
	}
	start := time.Now()
	reports, err := sess.TuneBatch(ctx, reqs)
	if err != nil {
		fmt.Fprintf(stderr, "autoarch: %v\n", err)
		return 1
	}
	fmt.Fprintf(progress, "swept in %v\n", time.Since(start).Round(time.Millisecond))

	if jsonOut {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "autoarch: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	}
	fmt.Fprintf(stdout, "\n%-16s %10s %10s  %s\n", "weights", "runtime%", "actual%", "recommended changes")
	for _, rep := range reports {
		changes := strings.Join(rep.Recommendation.Changes, " ")
		if changes == "" {
			changes = "(keep base)"
		}
		wlabel := fmt.Sprintf("%g:%g", rep.Weights.W1, rep.Weights.W2)
		if rep.Weights.W3 != 0 {
			wlabel += fmt.Sprintf(":%g", rep.Weights.W3)
		}
		actual := "-"
		if rep.Validation != nil {
			actual = fmt.Sprintf("%+.2f", rep.Validation.RuntimePct)
		}
		fmt.Fprintf(stdout, "%-16s %+10.2f %10s  %s\n",
			wlabel, rep.Recommendation.Predicted.RuntimePct, actual, changes)
	}
	return 0
}

// remoteJob carries the flag values a -remote submission maps onto the
// daemon's wire request.
type remoteJob struct {
	app, scale, space   string
	w1, w2              float64
	workers             int
	includeModel        bool
	class               string
	phases              bool
	interval, switchPen uint64
	phaseThr            float64
	replay, online      bool
}

// request maps the flags onto the daemon's JobRequest.
func (r remoteJob) request() serve.JobRequest {
	req := serve.JobRequest{
		App:          r.app,
		Scale:        r.scale,
		Space:        r.space,
		W1:           &r.w1,
		W2:           &r.w2,
		Workers:      r.workers,
		IncludeModel: r.includeModel,
		Class:        r.class,
	}
	if r.phases {
		req.Phases = true
		req.IntervalInstructions = r.interval
		req.SwitchPenaltyCycles = r.switchPen
		req.PhaseThreshold = r.phaseThr
		req.Replay = r.replay
		req.Online = r.online
	}
	return req
}

// runRemote submits the job (or, with weightings, the batch) to a
// running autoarchd, polls it to completion, and prints the result
// document — always JSON, since the daemon's documents are the wire
// format.
func runRemote(ctx context.Context, baseURL string, rj remoteJob, ws []core.Weights, jsonOut bool, stdout, stderr, progress io.Writer) int {
	baseURL = strings.TrimRight(baseURL, "/")
	var path string
	var payload any
	if len(ws) > 0 {
		weightings := make([]serve.Weighting, len(ws))
		for i, w := range ws {
			weightings[i] = serve.Weighting{W1: w.W1, W2: w.W2, W3: w.W3}
		}
		path = "/v1/batch"
		payload = serve.BatchRequest{JobRequest: rj.request(), Weightings: weightings}
	} else {
		path = "/v1/jobs"
		payload = rj.request()
	}
	body, err := json.Marshal(payload)
	if err != nil {
		fmt.Fprintf(stderr, "autoarch: %v\n", err)
		return 1
	}
	st, err := postJSON(ctx, baseURL+path, body)
	if err != nil {
		fmt.Fprintf(stderr, "autoarch: %v\n", err)
		return 1
	}
	fmt.Fprintf(progress, "submitted %s to %s (%s)\n", st.ID, baseURL, st.State)

	lastDone := -1
	for !st.Terminal() {
		select {
		case <-ctx.Done():
			fmt.Fprintf(stderr, "autoarch: %v\n", ctx.Err())
			return 1
		case <-time.After(250 * time.Millisecond):
		}
		st, err = getStatus(ctx, baseURL+"/v1/jobs/"+st.ID)
		if err != nil {
			fmt.Fprintf(stderr, "autoarch: %v\n", err)
			return 1
		}
		if st.Progress != nil && st.Progress.Done != lastDone {
			lastDone = st.Progress.Done
			fmt.Fprintf(progress, "measured %d of %d\n", st.Progress.Done, st.Progress.Total)
		}
	}
	switch st.State {
	case serve.StateDone:
		var doc any
		switch {
		case st.Results != nil:
			doc = st.Results
		case st.PhaseResult != nil:
			doc = st.PhaseResult
		default:
			doc = st.Result
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "autoarch: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	default:
		fmt.Fprintf(stderr, "autoarch: job %s %s: %s\n", st.ID, st.State, st.Error)
		return 1
	}
}

// postJSON submits a job document and decodes the accepted JobStatus.
func postJSON(ctx context.Context, url string, body []byte) (serve.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	return doStatus(req)
}

// getStatus fetches a JobStatus.
func getStatus(ctx context.Context, url string) (serve.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return serve.JobStatus{}, err
	}
	return doStatus(req)
}

func doStatus(req *http.Request) (serve.JobStatus, error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return serve.JobStatus{}, fmt.Errorf("%s: %s", req.URL.Path, e.Error)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.JobStatus{}, err
	}
	return st, nil
}
