package measure

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/platform"
	"liquidarch/internal/profiler"
)

// saveN spills n distinct fake measurements through store and returns
// their keys in save order.
func saveN(t *testing.T, store *Store, n int) []Key {
	t.Helper()
	p := NewPersistent(&fakeProvider{}, store)
	ctx := context.Background()
	keys := make([]Key, 0, n)
	for i := 0; i < n; i++ {
		prog := testProgram(t, i)
		if _, err := p.Measure(ctx, prog, config.Default(), platform.Options{}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, KeyFor(prog, config.Default(), platform.Options{}))
	}
	return keys
}

// age rewinds an entry's mtime by d.
func age(t *testing.T, store *Store, key Key, d time.Duration) {
	t.Helper()
	then := time.Now().Add(-d)
	if err := os.Chtimes(store.path(key), then, then); err != nil {
		t.Fatal(err)
	}
}

func TestStoreGCByAge(t *testing.T) {
	t.Parallel()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := saveN(t, store, 4)
	age(t, store, keys[0], 3*time.Hour)
	age(t, store, keys[1], 2*time.Hour)

	res := store.GC(GCPolicy{MaxAge: time.Hour})
	if res.Removed != 2 {
		t.Fatalf("GC removed %d entries, want the 2 aged ones", res.Removed)
	}
	if res.Entries != 2 || store.Len() != 2 {
		t.Fatalf("GC left %d entries (Len %d), want 2", res.Entries, store.Len())
	}
	for _, k := range keys[:2] {
		if _, ok := store.Load(k); ok {
			t.Error("aged entry still loadable after GC")
		}
	}
	for _, k := range keys[2:] {
		if _, ok := store.Load(k); !ok {
			t.Error("fresh entry lost to an age-only GC")
		}
	}
}

func TestStoreGCByBytesEvictsLRU(t *testing.T) {
	t.Parallel()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := saveN(t, store, 6)
	// Stamp a strict mtime order: keys[0] coldest … keys[5] hottest.
	for i, k := range keys {
		age(t, store, k, time.Duration(len(keys)-i)*time.Minute)
	}
	// A load makes the coldest entry the hottest — the LRU touch.
	if _, ok := store.Load(keys[0]); !ok {
		t.Fatal("entry vanished")
	}

	// Bound to roughly half the footprint.
	full := store.Stats().Bytes
	res := store.GC(GCPolicy{MaxBytes: full / 2})
	if res.Bytes > full/2 {
		t.Fatalf("GC left %d bytes, bound %d", res.Bytes, full/2)
	}
	if res.Removed == 0 {
		t.Fatal("GC under a halved byte bound removed nothing")
	}
	// The touched entry must have survived; the coldest untouched ones
	// must be the casualties.
	if _, ok := store.Load(keys[0]); !ok {
		t.Error("recently loaded entry was evicted before colder ones")
	}
	if _, ok := store.Load(keys[1]); ok {
		t.Error("coldest untouched entry survived a byte-bound sweep")
	}
}

func TestStoreGCRemovesStaleTmp(t *testing.T) {
	t.Parallel()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(store.VersionDir(), ".tmp-crashed")
	fresh := filepath.Join(store.VersionDir(), ".tmp-inflight")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	then := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, then, then); err != nil {
		t.Fatal(err)
	}
	store.GC(GCPolicy{MaxAge: 24 * time.Hour})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("in-flight temp file was collected")
	}
}

// TestStoreGCRacingConcurrentWriter sweeps continuously while another
// goroutine writes: the multi-replica scenario where one daemon GCs the
// shared directory mid-spill of another. Nothing may error or wedge, and
// the final quiesced sweep must land within the bound.
func TestStoreGCRacingConcurrentWriter(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	writerStore, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sweeperStore, err := NewStore(dir) // a second replica's handle
	if err != nil {
		t.Fatal(err)
	}

	const n = 40
	progs := make([]*asm.Program, n)
	for i := range progs {
		progs[i] = testProgram(t, i)
	}
	writer := NewPersistent(&fakeProvider{}, writerStore)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Disk errors would surface as zero survivors below; t.Fatal is
		// not legal off the test goroutine.
		for _, prog := range progs {
			_, _ = writer.Measure(context.Background(), prog, config.Default(), platform.Options{})
		}
	}()
	policy := GCPolicy{MaxBytes: 2048}
	for i := 0; i < 50; i++ {
		sweeperStore.GC(policy)
	}
	wg.Wait()

	res := sweeperStore.GC(policy)
	if res.Bytes > policy.MaxBytes {
		t.Fatalf("quiesced GC left %d bytes, bound %d", res.Bytes, policy.MaxBytes)
	}
	// Whatever survived must still load cleanly through the writer's
	// handle — the sweep may delete entries, never corrupt them.
	loaded := 0
	for i := 0; i < n; i++ {
		key := KeyFor(testProgram(t, i), config.Default(), platform.Options{})
		if _, ok := writerStore.Load(key); ok {
			loaded++
		}
	}
	if loaded == 0 {
		t.Error("no entry survived; the bound should keep several")
	}
}

func TestStoreGCReclaimsQuiescentOlderVersionTrees(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// Trees left behind by an older format — one quiescent, one still
	// being touched (a live pre-upgrade replica) — plus a non-store
	// directory that must be left alone.
	quiet := filepath.Join(dir, "v0")
	live := filepath.Join(dir, "v-1")
	foreign := filepath.Join(dir, "vault")
	for _, d := range []string{quiet, live, foreign} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "x.json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	then := time.Now().Add(-3 * time.Hour)
	for _, p := range []string{quiet, filepath.Join(quiet, "x.json"), live} {
		if err := os.Chtimes(p, then, then); err != nil {
			t.Fatal(err)
		}
	}
	// live's entry keeps a fresh mtime — someone is still writing it.

	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.GC(GCPolicy{MaxAge: time.Hour})
	if _, err := os.Stat(quiet); !os.IsNotExist(err) {
		t.Error("quiescent v0 tree survived GC")
	}
	if _, err := os.Stat(live); err != nil {
		t.Error("GC removed an old tree that is still in use")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Error("GC removed a directory that is not a store version tree")
	}
	if _, err := os.Stat(store.VersionDir()); err != nil {
		t.Error("GC removed the current version tree")
	}
	// Without an age bound old trees are never touched.
	if err := os.MkdirAll(quiet, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(quiet, then, then); err != nil {
		t.Fatal(err)
	}
	store.GC(GCPolicy{MaxBytes: 1})
	if _, err := os.Stat(quiet); err != nil {
		t.Error("byte-only GC removed an old version tree")
	}
}

func TestStoreReadRepairRemovesCorruptEntry(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		corrupt func(valid []byte) []byte
	}{
		{"torn write", func([]byte) []byte { return []byte("{torn write") }},
		{"valid entry cut short by one byte", func(valid []byte) []byte { return valid[:len(valid)-1] }},
	} {
		store, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		key := KeyFor(testProgram(t, 0), config.Default(), platform.Options{})
		if err := store.Save(key, &platform.RunReport{Stats: profiler.Stats{Cycles: 1001, Instructions: 500}}); err != nil {
			t.Fatal(err)
		}
		path := store.path(key)
		valid, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tc.corrupt(valid), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Load(key); ok {
			t.Fatalf("%s: corrupt entry loaded", tc.name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: corrupt entry not repaired (removed) on read", tc.name)
		}
		if got := store.Stats().Repaired; got != 1 {
			t.Errorf("%s: repaired counter = %d, want 1", tc.name, got)
		}
		// The slot must be writable again.
		p := NewPersistent(&fakeProvider{}, store)
		if _, err := p.Measure(context.Background(), testProgram(t, 0), config.Default(), platform.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Load(key); !ok {
			t.Errorf("%s: repaired slot did not accept a fresh spill", tc.name)
		}
	}
}

func TestStoreVersionHandshake(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if _, err := NewStore(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatalf("no manifest written: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil || m.StoreVersion != StoreVersion {
		t.Fatalf("manifest %q, want store_version %d", data, StoreVersion)
	}

	// A newer fleet's directory is refused — without side effects: a
	// fresh directory holding only the newer manifest must not gain this
	// binary's version tree from the refused open.
	newerDir := t.TempDir()
	newer, _ := json.Marshal(manifest{StoreVersion: StoreVersion + 1})
	for _, d := range []string{dir, newerDir} {
		if err := os.WriteFile(filepath.Join(d, manifestName), newer, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewStore(dir); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("NewStore over a newer-version manifest: err = %v, want refusal", err)
	}
	if _, err := NewStore(newerDir); err == nil {
		t.Fatal("NewStore accepted a newer-version store")
	}
	if _, err := os.Stat(filepath.Join(newerDir, fmt.Sprintf("v%d", StoreVersion))); !os.IsNotExist(err) {
		t.Error("refused open still created this binary's version tree")
	}

	// A corrupt manifest is rewritten, not fatal.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(dir); err != nil {
		t.Fatalf("NewStore over a corrupt manifest: %v", err)
	}
	data, _ = os.ReadFile(filepath.Join(dir, manifestName))
	if err := json.Unmarshal(data, &m); err != nil || m.StoreVersion != StoreVersion {
		t.Errorf("corrupt manifest not rewritten: %q", data)
	}
}

func TestPersistentEnableGCBoundsTheStore(t *testing.T) {
	t.Parallel()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	policy := GCPolicy{MaxBytes: 1500}
	p := NewPersistent(&fakeProvider{}, store).EnableGC(policy)
	// Every program is measured as a planned pair, so each writes two
	// entries and then a set record.
	cfgs := []config.Config{config.Default(), cfgWithSetKB(8)}
	for i := 0; i < DefaultGCEvery; i++ {
		prog := testProgram(t, i)
		ctx := WithTraceScope(context.Background())
		Plan(ctx, prog, platform.Options{}, cfgs)
		for _, cfg := range cfgs {
			if _, err := p.Measure(ctx, prog, cfg, platform.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The last sweep ran at save 2*DefaultGCEvery; at most the last
	// program's record (~130 B) can sit above the bound between sweeps.
	st := store.Stats()
	if st.Bytes > policy.MaxBytes+1024 {
		t.Fatalf("store at %d bytes despite periodic GC to %d", st.Bytes, policy.MaxBytes)
	}
	if st.GCRuns == 0 {
		t.Error("no GC runs recorded")
	}
	if st.RecordSaves != DefaultGCEvery {
		t.Errorf("%d set records written, want %d", st.RecordSaves, DefaultGCEvery)
	}
	if recs, _ := filepath.Glob(filepath.Join(store.VersionDir(), "*"+RecordSuffix)); len(recs) == 0 {
		t.Error("no set record survived the sweeps; the test bounds entries alone")
	}
}
