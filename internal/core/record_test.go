package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/measure"
	"liquidarch/internal/workload"
)

// storeFiles lists the files of one kind (by suffix) in a store's
// version directory.
func storeFiles(t *testing.T, st *measure.Store, suffix string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(st.VersionDir(), "*"+suffix))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// tuneFresh runs req in a fresh session over a fresh stack on dir, as a
// restarted process does, and returns the report's JSON, the number of
// simulations and the store.
func tuneFresh(t *testing.T, dir string, req core.Request) (rep []byte, sims int64, st *measure.Store) {
	t.Helper()
	st, err := measure.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sim := &countedSimulator{}
	sess := core.NewSession(core.SessionOptions{
		Provider: measure.NewCache(measure.NewPersistent(sim, st), 512)})
	r, err := sess.Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = json.Marshal(r); err != nil {
		t.Fatal(err)
	}
	return rep, sim.calls.Load(), st
}

// TestStoreShapeRebuildReadsTheSetRecord: a model rebuilt in a fresh
// session over a filled measurement store — a restarted replica without
// model artifacts — reads the build's measurements from one set record.
// Each step removes another part of the store and requires the rebuild
// to make no simulation and to answer byte for byte as the cold build
// did: with the record and the entries; with a record cut short by one
// byte (removed on read, the entries answer, and the rebuild writes it
// again); with a record whose last member does not decode (the record
// answers the others, is removed, and that member's entry answers it);
// with no record (the entries answer, and the rebuild writes it); and
// with no entries (only the record can answer).
func TestStoreShapeRebuildReadsTheSetRecord(t *testing.T) {
	for _, tc := range []struct {
		name   string
		phases *core.PhaseOptions
	}{
		{"plain", nil},
		{"interval", &core.PhaseOptions{IntervalInstructions: 10_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			req := core.Request{App: "arith", Scale: workload.Tiny, Space: config.FullSpace(),
				Phases: tc.phases, SkipValidation: true}
			tune := func() ([]byte, int64, *measure.Store) { return tuneFresh(t, dir, req) }
			var cold []byte
			check := func(step string, wantRecordLoads uint64, wantResident int) *measure.Store {
				t.Helper()
				got, sims, st := tune()
				if sims != 0 {
					t.Errorf("%s: %d simulations, want 0", step, sims)
				}
				if !bytes.Equal(got, cold) {
					t.Errorf("%s: answer differs from the cold build's", step)
				}
				if n := st.Stats().RecordLoads; n != wantRecordLoads {
					t.Errorf("%s: %d set records read, want %d", step, n, wantRecordLoads)
				}
				if recs := storeFiles(t, st, measure.RecordSuffix); len(recs) != wantResident {
					t.Errorf("%s: %d set records resident after the rebuild, want %d", step, len(recs), wantResident)
				}
				return st
			}

			var sims int64
			var st *measure.Store
			cold, sims, st = tune()
			if sims == 0 {
				t.Fatal("the cold build made no simulation")
			}
			if n := st.Stats().RecordSaves; n != 1 {
				t.Fatalf("the cold build wrote %d set records, want 1", n)
			}
			check("record and entries", 1, 1)

			rec := storeFiles(t, st, measure.RecordSuffix)[0]
			data, err := os.ReadFile(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(rec, data[:len(data)-1], 0o644); err != nil {
				t.Fatal(err)
			}
			if st := check("record cut short", 0, 1); st.Stats().Repaired != 1 {
				t.Errorf("record cut short: %d files repaired, want 1", st.Stats().Repaired)
			}
			if again, err := os.ReadFile(rec); err != nil || !bytes.Equal(again, data) {
				t.Errorf("the rebuild did not write the record again (%v)", err)
			}

			// The last byte ends the last member's entry: a continuation
			// bit there leaves its final varint unfinished.
			damaged := append([]byte{}, data...)
			damaged[len(damaged)-1] |= 0x80
			if err := os.WriteFile(rec, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if st := check("last member damaged", 1, 0); st.Stats().Repaired != 1 {
				t.Errorf("last member damaged: %d files repaired, want 1", st.Stats().Repaired)
			}

			check("no record", 0, 1)

			for _, e := range storeFiles(t, st, measure.EntrySuffix) {
				if err := os.Remove(e); err != nil {
					t.Fatal(err)
				}
			}
			check("no entries", 1, 1)
		})
	}
}

// TestStoreGCKeepsTheHotRecord: a byte-bounded sweep evicts the per-key
// entries that a store-shape rebuild no longer reads before the set
// record that it does. A Tiny build fills the store with its entries and
// its record, all made an hour old; a rebuild in a fresh session reads
// the record, which makes it the hottest file; a sweep bounded to the
// record's size then removes every entry, and the record alone answers
// the next rebuild with no simulation and the cold build's answer. A set
// manifest left by an older binary goes in the same sweep.
func TestStoreGCKeepsTheHotRecord(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	req := core.Request{App: "arith", Scale: workload.Tiny, Space: config.FullSpace(), SkipValidation: true}
	cold, sims, st := tuneFresh(t, dir, req)
	if sims == 0 {
		t.Fatal("the cold build made no simulation")
	}
	entries := storeFiles(t, st, measure.EntrySuffix)
	recs := storeFiles(t, st, measure.RecordSuffix)
	if len(entries) == 0 || len(recs) != 1 {
		t.Fatalf("the cold build left %d entries and %d set records, want some and 1", len(entries), len(recs))
	}
	then := time.Now().Add(-time.Hour)
	for _, f := range append(entries, recs...) {
		if err := os.Chtimes(f, then, then); err != nil {
			t.Fatal(err)
		}
	}

	got, sims, st := tuneFresh(t, dir, req)
	if sims != 0 || !bytes.Equal(got, cold) || st.Stats().RecordLoads != 1 {
		t.Fatalf("rebuild: %d simulations, %d set records read, same answer %v; want 0, 1, true",
			sims, st.Stats().RecordLoads, bytes.Equal(got, cold))
	}

	manifest := filepath.Join(st.VersionDir(), strings.Repeat("ab", 32)+".set")
	if err := os.WriteFile(manifest, []byte(`{"version":2,"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	res := st.GC(measure.GCPolicy{MaxBytes: info.Size()})
	if res.Removed != len(entries) || res.Entries != 1 {
		t.Errorf("GC removed %d files and left %d, want the %d entries removed and the record left",
			res.Removed, res.Entries, len(entries))
	}
	if _, err := os.Stat(recs[0]); err != nil {
		t.Errorf("the hot set record was evicted: %v", err)
	}
	if left := storeFiles(t, st, measure.EntrySuffix); len(left) != 0 {
		t.Errorf("%d cold entries survived the sweep", len(left))
	}
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Errorf("the sweep left the set manifest (%v)", err)
	}

	got, sims, st = tuneFresh(t, dir, req)
	if sims != 0 {
		t.Errorf("rebuild after the sweep: %d simulations, want 0", sims)
	}
	if !bytes.Equal(got, cold) {
		t.Error("rebuild after the sweep: answer differs from the cold build's")
	}
	if n := st.Stats().RecordLoads; n != 1 {
		t.Errorf("rebuild after the sweep: %d set records read, want 1", n)
	}
}
