package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"liquidarch/internal/core"
	"liquidarch/internal/workload"
)

// apps are the five benchmark programs, in the rotation order cold-tune
// sends them.
var apps = []string{"blastn", "drr", "frag", "arith", "mix"}

// weightGrid is the set of objective weightings (w1:w2:w3) requests draw
// from.
var weightGrid = []core.Weights{
	{W1: 100, W2: 1}, {W1: 1, W2: 100}, {W1: 100, W2: 100}, {W1: 50, W2: 1},
	{W1: 10, W2: 1}, {W1: 1, W2: 10}, {W1: 100, W2: 1, W3: 10}, {W1: 1, W2: 1, W3: 100},
}

// scale is the workload size every request names explicitly:
// core.Request's zero Scale is Tiny, not Small.
const scale = workload.Small

// reqKey identifies one request of the grid. Phase requests (mix with
// replay and online, sent by cold-tune) answer a different question from
// the plain request of the same weighting.
type reqKey struct {
	App   string
	W     core.Weights
	Phase bool
}

func (k reqKey) String() string {
	s := fmt.Sprintf("%s %g:%g:%g", k.App, k.W.W1, k.W.W2, k.W.W3)
	if k.Phase {
		s += " phases"
	}
	return s
}

// request builds the core request for k.
func (k reqKey) request() core.Request {
	req := core.Request{App: k.App, Scale: scale, Weights: k.W}
	if k.Phase {
		req.Phases = &core.PhaseOptions{}
		req.Replay = true
		req.Online = true
	}
	return req
}

// plainGrid lists every plain request of the grid, app by app.
func plainGrid() []reqKey {
	var keys []reqKey
	for _, app := range apps {
		for _, w := range weightGrid {
			keys = append(keys, reqKey{App: app, W: w})
		}
	}
	return keys
}

// expectedAnswer is what one request must answer: the recommended
// configuration, the base cycles, and the cycles of the run that checks
// the recommendation (the validation run of a plain request, the
// schedule replay and the online run of a phase request).
type expectedAnswer struct {
	Config          string `json:"config"`
	BaseCycles      uint64 `json:"base_cycles"`
	ValidatedCycles uint64 `json:"validated_cycles,omitempty"`
	ReplayCycles    uint64 `json:"replay_cycles,omitempty"`
	OnlineCycles    uint64 `json:"online_cycles,omitempty"`
}

// expected maps reqKey.String() to the answer; it covers the whole grid,
// so every seed's draws are checked.
type expected map[string]expectedAnswer

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("parsing expected.json: %w", err)
	}
	return &e, nil
}

func answerOf(rep *core.Report) expectedAnswer {
	a := expectedAnswer{Config: rep.Recommendation.Config, BaseCycles: rep.Base.Cycles}
	if rep.Validation != nil {
		a.ValidatedCycles = rep.Validation.Cycles
	}
	if rep.Replay != nil {
		a.ReplayCycles = rep.Replay.ActualCycles
	}
	if rep.Online != nil {
		a.OnlineCycles = rep.Online.ActualCycles
	}
	return a
}

// check compares a report with the recorded answer for its request.
func (e *expected) check(k reqKey, rep *core.Report) error {
	want, ok := (*e)[k.String()]
	if !ok {
		return fmt.Errorf("%s: no expected answer recorded", k)
	}
	if got := answerOf(rep); got != want {
		return fmt.Errorf("%s: answered %+v, expected %+v", k, got, want)
	}
	return nil
}

// recordExpected tunes every request of the grid through one session and
// writes the answers to path.
func recordExpected(path string) error {
	sess := core.NewSession(core.SessionOptions{})
	keys := plainGrid()
	for _, w := range weightGrid {
		keys = append(keys, reqKey{App: "mix", W: w, Phase: true})
	}
	out := expected{}
	for _, k := range keys {
		rep, err := sess.Tune(context.Background(), k.request())
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		out[k.String()] = answerOf(rep)
	}
	data, err := json.MarshalIndent(out, "", "  ") // map keys sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
