package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/measure"
	"liquidarch/internal/workload"
)

// artifactSeeds spills the artifacts of a plain and a phase build of
// arith at Tiny and returns each file with the key it answers.
func artifactSeeds(tb testing.TB) ([][]byte, []modelKey) {
	tb.Helper()
	ms, err := NewModelStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	sess := NewSession(SessionOptions{Provider: measure.NewCache(measure.Simulator{}, 512), ModelStore: ms})
	for _, phases := range []*PhaseOptions{nil, {IntervalInstructions: 10_000}} {
		req := Request{App: "arith", Scale: workload.Tiny, Space: config.DcacheGeometrySpace(), Phases: phases}
		if _, err := sess.Tune(context.Background(), req); err != nil {
			tb.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(ms.versionDir(), "*.json"))
	if err != nil || len(files) != 2 {
		tb.Fatalf("artifacts %v (%v), want a plain and a phase one", files, err)
	}
	var seeds [][]byte
	var keys []modelKey
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		var in modelSetJSON
		if err := json.Unmarshal(data, &in); err != nil {
			tb.Fatal(err)
		}
		scale, _ := workload.ParseScale(in.Scale)
		seeds = append(seeds, data)
		keys = append(keys, modelKey{prog: in.Prog, space: in.Space, scale: scale,
			sample: in.Sample, interval: in.Interval, threshold: in.Threshold})
	}
	return seeds, keys
}

// FuzzModelArtifact: against the fixed keys of a plain and a phase
// build, decodeModelSet either rejects arbitrary bytes or returns a set
// that survives a save/load round trip unchanged. It never panics.
func FuzzModelArtifact(f *testing.F) {
	seeds, keys := artifactSeeds(f)
	for _, s := range seeds {
		f.Add(s)
		var indented bytes.Buffer
		if err := json.Indent(&indented, s, "", "  "); err != nil {
			f.Fatal(err)
		}
		f.Add(indented.Bytes())
	}
	ms, err := NewModelStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range keys {
			set, err := decodeModelSet(data, key)
			if err != nil {
				continue
			}
			want, err := encodeModelSet(key, set)
			if err != nil {
				t.Fatalf("decoded set does not encode: %v", err)
			}
			if err := ms.save(key, set); err != nil {
				t.Fatal(err)
			}
			back, ok := ms.load(key)
			if !ok {
				t.Fatalf("saved artifact does not load:\n%s", want)
			}
			got, err := encodeModelSet(key, back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round trip changed the set:\n%s\n%s", want, got)
			}
		}
	})
}

// TestDecodeModelSetRejectsUnknownPhases: a phase artifact whose trace
// names a phase it holds no model for, or has no segment to open the
// replay with, reads as corrupt. Without the check such an artifact
// decoded, and the request that used it crashed indexing the per-phase
// recommendations out of range.
func TestDecodeModelSetRejectsUnknownPhases(t *testing.T) {
	seeds, keys := artifactSeeds(t)
	checked := 0
	for i, data := range seeds {
		if keys[i].interval == 0 {
			continue // the plain build's artifact has no trace
		}
		if _, err := decodeModelSet(data, keys[i]); err != nil {
			t.Fatalf("intact phase artifact rejected: %v", err)
		}
		for _, tc := range []struct {
			name   string
			damage func(tr map[string]any)
		}{
			{"segment phase past the last", func(tr map[string]any) { firstSegment(tr)["phase"] = tr["phases"] }},
			{"negative segment phase", func(tr map[string]any) { firstSegment(tr)["phase"] = -1 }},
			{"segment ending before it starts", func(tr map[string]any) { firstSegment(tr)["start"], firstSegment(tr)["end"] = 5, 4 }},
			{"assignment phase past the last", func(tr map[string]any) { tr["assignments"].([]any)[0] = tr["phases"] }},
			{"no segments", func(tr map[string]any) { tr["segments"] = []any{} }},
		} {
			var m map[string]any
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			tc.damage(m["trace"].(map[string]any))
			damaged, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeModelSet(damaged, keys[i]); err == nil {
				t.Errorf("%s: damaged phase artifact decoded", tc.name)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no phase artifact among the seeds")
	}
}

func firstSegment(tr map[string]any) map[string]any {
	return tr["segments"].([]any)[0].(map[string]any)
}
