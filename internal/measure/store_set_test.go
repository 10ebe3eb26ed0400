package measure

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// setManifestPath returns the manifest file SaveSet(id, ...) writes.
func setManifestPath(store *Store, id string) string {
	return filepath.Join(store.VersionDir(), id+".set")
}

func entrySize(t *testing.T, store *Store, key Key) int64 {
	t.Helper()
	info, err := os.Stat(store.path(key))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestStoreGCSetCohesion: the byte sweep evicts a whole complete cold
// set before splitting a warmer one — even when the warmer set holds
// the oldest individual files, the case where plain per-entry LRU would
// shave a set another replica is about to replay.
func TestStoreGCSetCohesion(t *testing.T) {
	t.Parallel()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := saveN(t, store, 8)
	setA, setB := keys[:4], keys[4:]
	if err := store.SaveSet("aaaa", setA); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSet("bbbb", setB); err != nil {
		t.Fatal(err)
	}
	// Set A: uniformly 3 hours cold. Set B: three members 4 hours cold
	// but one loaded an hour ago — B's unit heat is 1h, so B is the
	// warmer set despite owning the three oldest files on disk.
	for _, k := range setA {
		age(t, store, k, 3*time.Hour)
	}
	for _, k := range setB[:3] {
		age(t, store, k, 4*time.Hour)
	}
	age(t, store, setB[3], 1*time.Hour)

	size := entrySize(t, store, keys[0])
	res := store.GC(GCPolicy{MaxBytes: 5 * size})
	if res.Removed != 4 || res.RemovedSets != 1 {
		t.Fatalf("GC removed %d entries / %d sets, want the 4-entry set A and its manifest (result %+v)",
			res.Removed, res.RemovedSets, res)
	}
	for _, k := range setA {
		if _, ok := store.Load(k); ok {
			t.Error("cold set A member survived the sweep")
		}
	}
	for _, k := range setB {
		if _, ok := store.Load(k); !ok {
			t.Error("warm set B was split by the sweep")
		}
	}
	if _, err := os.Stat(setManifestPath(store, "aaaa")); !os.IsNotExist(err) {
		t.Error("evicted set A left its manifest behind")
	}
	if _, err := os.Stat(setManifestPath(store, "bbbb")); err != nil {
		t.Error("surviving set B lost its manifest")
	}
}

// TestStoreGCSetAgeIsUnitHeat: one recently used member keeps its whole
// set alive through an age sweep; once every member is cold the set goes
// as one unit, manifest included.
func TestStoreGCSetAgeIsUnitHeat(t *testing.T) {
	t.Parallel()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := saveN(t, store, 3)
	if err := store.SaveSet("cccc", keys); err != nil {
		t.Fatal(err)
	}
	age(t, store, keys[0], 3*time.Hour)
	age(t, store, keys[1], 3*time.Hour)
	// keys[2] stays fresh: the unit's heat.
	if res := store.GC(GCPolicy{MaxAge: time.Hour}); res.Removed != 0 {
		t.Fatalf("age sweep removed %d members of a set with a fresh member", res.Removed)
	}

	age(t, store, keys[2], 2*time.Hour)
	res := store.GC(GCPolicy{MaxAge: time.Hour})
	if res.Removed != 3 || res.RemovedSets != 1 {
		t.Fatalf("cold set: removed %d entries / %d sets, want 3 / 1", res.Removed, res.RemovedSets)
	}
	if store.Len() != 0 {
		t.Errorf("store holds %d entries after whole-set age eviction", store.Len())
	}
}

// TestStoreGCStaleSetManifest: a manifest naming a missing entry is
// already broken — the sweep collects it (like a stale claim) and the
// survivors revert to loose entries; corrupt manifests go the same way.
func TestStoreGCStaleSetManifest(t *testing.T) {
	t.Parallel()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := saveN(t, store, 3)
	if err := store.SaveSet("dddd", keys); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(store.path(keys[0])); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(setManifestPath(store, "junk"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	res := store.GC(GCPolicy{})
	if res.RemovedSets != 2 {
		t.Fatalf("GC removed %d set manifests, want the stale one and the corrupt one", res.RemovedSets)
	}
	if res.Removed != 0 {
		t.Fatalf("manifest housekeeping removed %d entries, want 0", res.Removed)
	}
	for _, k := range keys[1:] {
		if _, ok := store.Load(k); !ok {
			t.Error("survivor of a broken set was collected")
		}
	}
	if _, err := os.Stat(setManifestPath(store, "dddd")); !os.IsNotExist(err) {
		t.Error("stale manifest survived the sweep")
	}
	if _, err := os.Stat(setManifestPath(store, "junk")); !os.IsNotExist(err) {
		t.Error("corrupt manifest survived the sweep")
	}
}

// TestStoreGCMergedSets: manifests sharing a member merge into one
// eviction unit — the byte sweep takes or leaves them together.
func TestStoreGCMergedSets(t *testing.T) {
	t.Parallel()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := saveN(t, store, 5)
	// Two sets overlapping on keys[2], plus a loose fresh entry keys[4].
	if err := store.SaveSet("eeee", keys[:3]); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSet("ffff", keys[2:4]); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:4] {
		age(t, store, k, 2*time.Hour)
	}

	size := entrySize(t, store, keys[0])
	// Bound of 2 entries: the merged 4-entry unit must go whole; the
	// fresh loose entry survives.
	res := store.GC(GCPolicy{MaxBytes: 2 * size})
	if res.Removed != 4 || res.RemovedSets != 2 {
		t.Fatalf("merged unit: removed %d entries / %d sets, want 4 / 2 (result %+v)",
			res.Removed, res.RemovedSets, res)
	}
	if _, ok := store.Load(keys[4]); !ok {
		t.Error("loose fresh entry lost with the merged unit")
	}
}
