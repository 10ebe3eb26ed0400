package measure

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/cache"
	"liquidarch/internal/config"
	"liquidarch/internal/platform"
	"liquidarch/internal/profiler"
)

// rendezvous holds each key's simulation until both replicas have
// missed the shared store and entered it, so every key is simulated on
// both and the two spills race the rename.
type rendezvous struct {
	mu      sync.Mutex
	arrived map[Key]chan struct{}
}

func (r *rendezvous) meet(ctx context.Context, key Key) error {
	r.mu.Lock()
	ch, ok := r.arrived[key]
	if ok {
		close(ch)
	} else {
		ch = make(chan struct{})
		r.arrived[key] = ch
	}
	r.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// keyedProvider answers like a simulator: the report is a pure function
// of the (program, configuration) pair, so two replicas measuring one
// key get the same report.
type keyedProvider struct {
	calls atomic.Int64
	meet  *rendezvous
}

func (k *keyedProvider) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	k.calls.Add(1)
	if err := k.meet.meet(ctx, KeyFor(prog, cfg, opts)); err != nil {
		return nil, err
	}
	seed, err := strconv.ParseUint(Fingerprint(prog)[:8], 16, 64)
	if err != nil {
		return nil, err
	}
	seed += 7 * uint64(cfg.DCache.SetSizeKB)
	return &platform.RunReport{
		Config:   cfg,
		Stats:    profiler.Stats{Cycles: 1000 + seed, Instructions: 500 + seed, Loads: seed},
		ICache:   cache.Stats{ReadAccesses: 100 + seed, ReadMisses: 10},
		DCache:   cache.Stats{ReadAccesses: 50 + seed, ReadMisses: seed % 5},
		Checksum: uint32(seed),
		Console:  "ok\n",
	}, nil
}

// TestRacingReplicasShareOneStore: two replicas, each a Cache over a
// Persistent spill into one shared directory, measure the same keys at
// the same moment. Without any cross-replica coordination both simulate
// each key and race the spill's rename; the outcome must still be one
// loadable entry per key, no temp file left behind, and the same report
// bytes on both replicas and on disk.
func TestRacingReplicasShareOneStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	meet := &rendezvous{arrived: make(map[Key]chan struct{})}
	type replica struct {
		inner *keyedProvider
		store *Store
		cache *Cache
	}
	newReplica := func() replica {
		store, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		inner := &keyedProvider{meet: meet}
		return replica{inner, store, NewCache(NewPersistent(inner, store), 64)}
	}
	replicas := []replica{newReplica(), newReplica()}

	var keys []Key
	for i := range 6 {
		prog := testProgram(t, i)
		for _, kb := range []int{1, 2, 4, 8} {
			keys = append(keys, KeyFor(prog, cfgWithSetKB(kb), platform.Options{}))
		}
	}
	const callers = 2 // per key and replica
	got := make([][][]byte, len(replicas))
	for r := range got {
		got[r] = make([][]byte, callers*len(keys))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r, rep := range replicas {
		for i, key := range keys {
			// The cache's flights merge a replica's callers of one key;
			// nothing merges them across replicas.
			for c := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					out, err := rep.cache.Measure(ctx, key.Prog, key.Cfg, platform.Options{})
					if err != nil {
						t.Error(err)
						return
					}
					data, _ := json.Marshal(out)
					got[r][callers*i+c] = data
				}()
			}
		}
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	calls := replicas[0].inner.calls.Load() + replicas[1].inner.calls.Load()
	if calls != int64(2*len(keys)) {
		t.Fatalf("%d simulations for %d keys on 2 replicas: want one per key and replica", calls, len(keys))
	}
	for i, key := range keys {
		want := got[0][callers*i]
		for r := range replicas {
			for c := range callers {
				if g := got[r][callers*i+c]; string(g) != string(want) {
					t.Fatalf("key %d: replica %d caller %d disagrees:\n%s\nvs\n%s", i, r, c, g, want)
				}
			}
		}
		for r, rep := range replicas {
			loaded, ok := rep.store.Load(key)
			if !ok {
				t.Fatalf("key %d: no loadable entry through replica %d", i, r)
			}
			if data, _ := json.Marshal(loaded); string(data) != string(want) {
				t.Fatalf("key %d: stored report differs from the measured one:\n%s\nvs\n%s", i, data, want)
			}
		}
	}
	if n := replicas[0].store.Len(); n != len(keys) {
		t.Fatalf("%d entries on disk for %d keys", n, len(keys))
	}
	for _, d := range []string{dir, replicas[0].store.VersionDir()} {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				t.Errorf("stray temp file %s in %s", e.Name(), d)
			}
		}
	}
}
