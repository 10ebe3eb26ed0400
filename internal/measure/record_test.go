package measure

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"liquidarch/internal/config"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// realRecords measures a real Tiny plan of arith (the base and the
// dcache geometry variants) through a Persistent store, plain and
// interval-profiled, and returns the set records the store wrote.
func realRecords(tb testing.TB) [][]byte {
	tb.Helper()
	bench, _ := progs.ByName("arith")
	prog, err := bench.Assemble(workload.Tiny)
	if err != nil {
		tb.Fatal(err)
	}
	store, err := NewStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	p := NewPersistent(Simulator{}, store)
	cfgs := []config.Config{config.Default()}
	for _, v := range config.DcacheGeometrySpace().Vars() {
		cfgs = append(cfgs, v.Apply(config.Default()))
	}
	for _, opts := range []platform.Options{{}, {IntervalInstructions: 10_000}} {
		ctx := WithTraceScope(context.Background())
		Plan(ctx, prog, opts, cfgs)
		if err := ForEach(ctx, len(cfgs), 2, func(i int) error {
			_, err := p.Measure(ctx, prog, cfgs[i], opts)
			return err
		}); err != nil {
			tb.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(store.VersionDir(), "*"+RecordSuffix))
	if err != nil || len(files) != 2 {
		tb.Fatalf("records %v (%v), want a plain and an interval one", files, err)
	}
	var out [][]byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// decodeRecord decodes a whole record as its planned callers do: split
// it, then decode every member.
func decodeRecord(data []byte) ([]*platform.RunReport, error) {
	members, err := splitRecord(data)
	if err != nil {
		return nil, err
	}
	reps := make([]*platform.RunReport, len(members))
	for i, m := range members {
		if reps[i], err = decodeEntry(m); err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// FuzzSetRecord: on arbitrary bytes the record decoder either rejects
// them or returns members whose re-encoding decodes equal, and that
// re-encoding is never longer than the input: every member the decoder
// allocates is paid for by input bytes.
func FuzzSetRecord(f *testing.F) {
	for _, r := range realRecords(f) {
		f.Add(r)
	}
	f.Add([]byte(recordMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		reps, err := decodeRecord(data)
		if err != nil {
			return
		}
		again := appendRecord(nil, reps)
		if len(again) > len(data) {
			t.Fatalf("a %d-byte input decoded to members that encode in %d bytes", len(data), len(again))
		}
		back, err := decodeRecord(again)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(reps, back) {
			t.Fatal("round trip changed the record")
		}
	})
}

// TestSetRecordDecoderRejects: each kind of damage the record decoder
// must turn into a miss.
func TestSetRecordDecoderRejects(t *testing.T) {
	valid := realRecords(t)[0]
	reps, err := decodeRecord(valid)
	if err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	// A member whose length claims one byte past its entry, and has it.
	entry := appendEntry(nil, reps[0])
	long := append([]byte(recordMagic), StoreVersion, 1)
	long = binary.AppendUvarint(long, uint64(len(entry)+1))
	long = append(append(long, entry...), 0)
	one := appendRecord(nil, reps[:1])
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"wrong magic", append([]byte(entryMagic), valid[len(recordMagic):]...)},
		{"wrong version", append(append([]byte(recordMagic), StoreVersion+1), valid[len(recordMagic)+1:]...)},
		{"no members", appendRecord(nil, nil)},
		{"count past the end", append(append([]byte(recordMagic), StoreVersion, 0x7f), one[len(recordMagic)+2:]...)},
		{"cut short", valid[:len(valid)-1]},
		{"trailing byte", append(append([]byte{}, valid...), 0)},
		{"member with a trailing byte", long},
	} {
		if _, err := decodeRecord(tc.data); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
}

// TestSetRecordNeedsTheWholePlan: a record is written only when every
// planned key passed through the store. A key the cache above answered
// leaves the set incomplete, and nothing is written.
func TestSetRecordNeedsTheWholePlan(t *testing.T) {
	t.Parallel()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog := testProgram(t, 0)
	cfgs := []config.Config{config.Default(), cfgWithSetKB(8), cfgWithSetKB(2)}
	cache := NewCache(NewPersistent(&fakeProvider{}, store), 16)
	if _, err := cache.Measure(context.Background(), prog, cfgs[1], platform.Options{}); err != nil {
		t.Fatal(err)
	}
	ctx := WithTraceScope(context.Background())
	Plan(ctx, prog, platform.Options{}, cfgs)
	for _, cfg := range cfgs {
		if _, err := cache.Measure(ctx, prog, cfg, platform.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := store.Stats(); st.RecordSaves != 0 {
		t.Errorf("%d records written for a plan the cache partly answered", st.RecordSaves)
	}
	// The same plan through a fresh cache reaches the store whole.
	cache = NewCache(NewPersistent(&fakeProvider{}, store), 16)
	ctx = WithTraceScope(context.Background())
	Plan(ctx, prog, platform.Options{}, cfgs)
	for _, cfg := range cfgs {
		if _, err := cache.Measure(ctx, prog, cfg, platform.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := store.Stats(); st.RecordSaves != 1 {
		t.Errorf("%d records written for a whole plan, want 1", st.RecordSaves)
	}
}

// TestSetRecordWaitHonoursContext: a planned caller waiting for another
// caller's record read gives up when its own context ends.
func TestSetRecordWaitHonoursContext(t *testing.T) {
	t.Parallel()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPersistent(&fakeProvider{}, store)
	prog := testProgram(t, 0)
	scope := WithTraceScope(context.Background())
	Plan(scope, prog, platform.Options{}, []config.Config{config.Default()})
	// A read that never finishes: the record exists but its loader is
	// this test, which never closes it.
	s := scope.Value(traceScopeKey{}).(*traceScope)
	s.records = map[recordKey]*planRecord{
		{p: p, tk: traceKeyOf(prog, platform.Options{})}: {loaded: make(chan struct{})},
	}
	ctx, cancel := context.WithTimeout(scope, 10*time.Millisecond)
	defer cancel()
	if _, err := p.Measure(ctx, prog, config.Default(), platform.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter returned %v, want its own deadline", err)
	}
}
