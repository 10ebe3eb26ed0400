package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/measure"
	"liquidarch/internal/phase"
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
	files, err := filepath.Glob(filepath.Join(ms.versionDir(), "*"+ArtifactSuffix))
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
		c := artifactCodec{dec: true, b: data[len(artifactMagic):]}
		var version uint64
		var key modelKey
		c.uint(&version)
		c.key(&key)
		if c.err != nil {
			tb.Fatal(c.err)
		}
		seeds = append(seeds, data)
		keys = append(keys, key)
	}
	return seeds, keys
}

// FuzzModelArtifact: against the fixed keys of a plain and a phase
// build, decodeModelSet either rejects arbitrary bytes or returns a set
// that survives a save/load round trip unchanged. It never panics. The
// seeds are the two builds' artifacts, each intact and cut short by one
// byte.
func FuzzModelArtifact(f *testing.F) {
	seeds, keys := artifactSeeds(f)
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1])
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
			want := encodeModelSet(key, set)
			if err := ms.save(key, set); err != nil {
				t.Fatal(err)
			}
			back, ok := ms.load(key)
			if !ok {
				t.Fatalf("saved artifact does not load:\n%x", want)
			}
			if got := encodeModelSet(key, back); !bytes.Equal(got, want) {
				t.Fatalf("round trip changed the set:\n%x\n%x", want, got)
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
			damage func(tr *phase.Trace)
		}{
			{"segment phase past the last", func(tr *phase.Trace) { tr.Segments[0].Phase = tr.Phases }},
			{"negative segment phase", func(tr *phase.Trace) { tr.Segments[0].Phase = -1 }},
			{"segment ending before it starts", func(tr *phase.Trace) { tr.Segments[0].Start, tr.Segments[0].End = 5, 4 }},
			{"assignment phase past the last", func(tr *phase.Trace) { tr.Assignments[0] = tr.Phases }},
			{"no segments", func(tr *phase.Trace) { tr.Segments = nil }},
			{"a representative short", func(tr *phase.Trace) { tr.Representatives = tr.Representatives[1:] }},
		} {
			set, err := decodeModelSet(data, keys[i])
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(set.trace)
			if _, err := decodeModelSet(encodeModelSet(keys[i], set), keys[i]); err == nil {
				t.Errorf("%s: damaged phase artifact decoded", tc.name)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no phase artifact among the seeds")
	}
}
