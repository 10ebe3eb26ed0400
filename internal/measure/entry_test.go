package measure

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// realEntries encodes real reports of every benchmark program at Tiny:
// a plain run, a run with intervals, and a sampled run.
func realEntries(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, name := range progs.Names() {
		bench, _ := progs.ByName(name)
		prog, err := bench.Assemble(workload.Tiny)
		if err != nil {
			tb.Fatal(err)
		}
		for _, opts := range []platform.Options{
			{},
			{IntervalInstructions: 10_000},
			{SampleInstructions: 5_000},
		} {
			rep, err := platform.RunWith(prog, config.Default(), opts)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, appendEntry(nil, rep))
		}
	}
	return out
}

// FuzzStoreEntry: on arbitrary bytes the entry decoder either rejects
// them or returns a report whose re-encoding decodes equal, and that
// re-encoding is never longer than the input: every interval and
// signature bucket the decoder allocates is paid for by input bytes.
func FuzzStoreEntry(f *testing.F) {
	for _, e := range realEntries(f) {
		f.Add(e)
	}
	f.Add([]byte(entryMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := decodeEntry(data)
		if err != nil {
			return
		}
		again := appendEntry(nil, rep)
		if len(again) > len(data) {
			t.Fatalf("a %d-byte input decoded to a report that encodes in %d bytes", len(data), len(again))
		}
		back, err := decodeEntry(again)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		if !reflect.DeepEqual(rep, back) {
			t.Fatalf("round trip changed the report:\n%+v\n%+v", rep, back)
		}
	})
}

// fillDistinct sets every settable leaf under v to a value no other
// leaf has, near the top of its type's range (so the widest encodings
// are exercised), and gives every slice three elements. It fails on a
// kind it does not know, so a new kind of field reaches the codec's
// author through this test.
func fillDistinct(t *testing.T, v reflect.Value, path string, next *uint64) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s.%s is unexported; the codec cannot see it", path, v.Type().Field(i).Name)
			}
			fillDistinct(t, v.Field(i), path+"."+v.Type().Field(i).Name, next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < 3; i++ {
			fillDistinct(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), next)
		}
	case reflect.Uint64, reflect.Uint32:
		v.SetUint(uint64(1)<<(v.Type().Bits()-1) | n)
	case reflect.Int:
		v.SetInt(math.MaxInt - int64(n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("console %d\n", n))
	default:
		t.Fatalf("%s has kind %s, which this test does not fill", path, v.Kind())
	}
}

// firstDiff names the first leaf at which a and b differ.
func firstDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d elements, want %d", path, b.Len(), a.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	}
	if !reflect.DeepEqual(a.Interface(), b.Interface()) {
		return fmt.Sprintf("%s: %v, want %v", path, b.Interface(), a.Interface())
	}
	return ""
}

// TestEntryCodecCoversEveryField fills every field of a RunReport (its
// profiler.Stats, both cache.Stats and every platform.Interval field
// included) with distinct values and requires the entry round trip to
// keep each one. A field added to any of those types that the codec
// does not write comes back zero and fails here. Config is the one
// field not stored: Load stamps the caller's configuration in.
func TestEntryCodecCoversEveryField(t *testing.T) {
	var want platform.RunReport
	v := reflect.ValueOf(&want).Elem()
	var next uint64
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "Config" {
			fillDistinct(t, v.Field(i), "RunReport."+name, &next)
		}
	}
	got, err := decodeEntry(appendEntry(nil, &want))
	if err != nil {
		t.Fatal(err)
	}
	if d := firstDiff(reflect.ValueOf(want), reflect.ValueOf(*got), "RunReport"); d != "" {
		t.Fatalf("entry round trip lost a field: %s", d)
	}
}

// TestEntryDecoderRejects: each kind of damage the decoder must turn
// into a miss.
func TestEntryDecoderRejects(t *testing.T) {
	valid := realEntries(t)[1] // the first program's run with intervals
	if _, err := decodeEntry(valid); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	// A minimal entry whose Console length claims more than remains, and
	// one whose ExitCode does not fit in 32 bits.
	header := append([]byte(entryMagic), StoreVersion)
	zeros := bytes.Repeat([]byte{0}, statsFields+2*cacheFields)
	minimal := func(tail ...byte) []byte {
		return append(append(append([]byte{}, header...), zeros...), tail...)
	}
	long := minimal(0, 0, 0x7f, 'x', 0, 0)
	wide := minimal(0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0)
	// Their in-range twins decode, so each rejection below is the one
	// fault it names.
	for _, ok := range [][]byte{minimal(0, 0, 1, 'x', 0, 0), minimal(0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0)} {
		if _, err := decodeEntry(ok); err != nil {
			t.Fatalf("in-range minimal entry %x rejected: %v", ok, err)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"wrong magic", append([]byte("XXXX"), valid[len(entryMagic):]...)},
		{"wrong version", append(append([]byte(entryMagic), StoreVersion+1), valid[len(entryMagic)+1:]...)},
		{"cut short", valid[:len(valid)-1]},
		{"trailing byte", append(append([]byte{}, valid...), 0)},
		{"length past the end", long},
		{"value too large for its field", wide},
	} {
		if _, err := decodeEntry(tc.data); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
}

// TestStoreUpgradeClaimsV1Directory: a store directory a v1 binary left
// (its manifest and one JSON entry, at the name v1 gave the key) is
// claimed for the current format. The v1 tree is left as it was, for
// the GC of quiescent older trees to collect, and the key misses exactly
// once before the current format answers it.
func TestStoreUpgradeClaimsV1Directory(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	prog := testProgram(t, 0)
	key := KeyFor(prog, config.Default(), platform.Options{})
	probe, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v1Entry := filepath.Join(dir, "v1", strings.TrimSuffix(filepath.Base(probe.path(key)), EntrySuffix)+".json")
	if err := os.MkdirAll(filepath.Dir(v1Entry), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"store_version":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	v1Data := []byte(`{"version":1,"config":[],"stats":{"Cycles":1001,"Instructions":500},"icache":{},"dcache":{},"exit_code":0,"checksum":1}`)
	if err := os.WriteFile(v1Entry, v1Data, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(v1Entry)
	if err != nil {
		t.Fatal(err)
	}

	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := os.ReadFile(filepath.Join(dir, manifestName)); !strings.Contains(string(m), fmt.Sprintf(`"store_version":%d`, StoreVersion)) {
		t.Fatalf("v1 directory not claimed for v%d: manifest %s", StoreVersion, m)
	}
	inner := &fakeProvider{}
	p := NewPersistent(inner, store)
	for i := 0; i < 3; i++ {
		if _, err := p.Measure(context.Background(), prog, config.Default(), platform.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := inner.calls.Load(); n != 1 {
		t.Errorf("key measured %d times over three requests, want one miss", n)
	}
	after, err := os.Stat(v1Entry)
	if err != nil {
		t.Fatalf("v1 entry gone after the upgrade: %v", err)
	}
	if data, _ := os.ReadFile(v1Entry); !bytes.Equal(data, v1Data) || !after.ModTime().Equal(before.ModTime()) {
		t.Error("the upgrade touched the v1 tree")
	}
	if st := store.Stats(); st.Repaired != 0 || st.Entries != 1 {
		t.Errorf("store stats %+v, want 1 entry and nothing repaired", st)
	}
}

// TestStoreFilesAreWorldReadable: every file the store spills — entry,
// set record and store.json — is mode 0644, not the temp file's 0600,
// so a replica running under another uid can read a shared directory.
func TestStoreFilesAreWorldReadable(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	prog := testProgram(t, 0)
	key := KeyFor(prog, config.Default(), platform.Options{})
	rep, err := platform.RunWith(prog, config.Default(), platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(key, rep); err != nil {
		t.Fatal(err)
	}
	record := filepath.Join(store.VersionDir(), "0123abcd"+RecordSuffix)
	if err := store.saveRecord(record, []*platform.RunReport{rep}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		store.path(key),
		record,
		filepath.Join(dir, manifestName),
	} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if perm := info.Mode().Perm(); perm != 0o644 {
			t.Errorf("%s has mode %v, want 0644", filepath.Base(path), perm)
		}
	}
}
