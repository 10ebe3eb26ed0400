//go:build ignore

// record writes recorded_search.json: the 40 BINLP problems the perfbench
// request grid formulates (5 programs × 8 weightings, Small scale, full
// 52-variable space), each with the search the solver ran on it — node
// count, objective bits and assignment. TestSolveMatchesRecordedSearch
// re-solves every problem and requires the identical search, so a change
// to the bound loop cannot silently change which nodes are explored.
//
// The file was recorded with the solver whose bounds rescanned every term
// at every node; re-recording with a later solver only re-pins that
// solver. Run from the repository root:
//
//	go run internal/binlp/testdata/record.go
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"

	"liquidarch/internal/binlp"
	"liquidarch/internal/core"
	"liquidarch/internal/workload"
)

type recorded struct {
	Name          string         `json:"name"`
	Problem       *binlp.Problem `json:"problem"`
	Nodes         int            `json:"nodes"`
	ObjectiveBits uint64         `json:"objective_bits"`
	X             []bool         `json:"x"`
}

func main() {
	apps := []string{"blastn", "drr", "frag", "arith", "mix"}
	weights := []core.Weights{
		{W1: 100, W2: 1}, {W1: 1, W2: 100}, {W1: 100, W2: 100}, {W1: 50, W2: 1},
		{W1: 10, W2: 1}, {W1: 1, W2: 10}, {W1: 100, W2: 1, W3: 10}, {W1: 1, W2: 1, W3: 100},
	}
	sess := core.NewSession(core.SessionOptions{})
	var out []recorded
	for _, app := range apps {
		for _, w := range weights {
			rep, err := sess.Tune(context.Background(), core.Request{
				App: app, Scale: workload.Small, Weights: w, IncludeModel: true,
			})
			if err != nil {
				log.Fatalf("%s: %v", app, err)
			}
			p := rep.Model.Formulate(w)
			sol, err := binlp.Solve(p, binlp.Options{})
			if err != nil {
				log.Fatalf("%s: %v", app, err)
			}
			if sol.Nodes != rep.Recommendation.SolverNodes {
				log.Fatalf("%s: %d nodes, the tune reported %d", app, sol.Nodes, rep.Recommendation.SolverNodes)
			}
			out = append(out, recorded{
				Name:          fmt.Sprintf("%s %g:%g:%g", app, w.W1, w.W2, w.W3),
				Problem:       p,
				Nodes:         sol.Nodes,
				ObjectiveBits: math.Float64bits(sol.Objective),
				X:             sol.X,
			})
		}
	}
	// One problem per line keeps the file diffable without the bulk of
	// full indentation.
	data := []byte("[\n")
	for i, r := range out {
		line, err := json.Marshal(r)
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, line...)
		if i < len(out)-1 {
			data = append(data, ',')
		}
		data = append(data, '\n')
	}
	data = append(data, "]\n"...)
	if err := os.WriteFile("internal/binlp/testdata/recorded_search.json", data, 0o644); err != nil {
		log.Fatal(err)
	}
}
