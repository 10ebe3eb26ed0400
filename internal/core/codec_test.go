package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/phase"
	"liquidarch/internal/workload"
)

// The fields the codec does not write as they are: a model's Space and
// its variables are re-bound by name, its Scale travels by name (so it
// must be a real scale), and compiled is a cache of the other fields.
var derivedFields = map[string]bool{"Space": true, "Var": true, "Scale": true, "compiled": true}

// fillDistinct sets every leaf under v, derived fields aside, to a value
// no other leaf has, near the top of its type's range (so the widest
// encodings are exercised), and gives every slice three elements. It
// fails on a kind it does not know, so a new kind of field reaches the
// codec's author through this test.
func fillDistinct(t *testing.T, v reflect.Value, path string, next *uint64) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if derivedFields[f.Name] {
				continue
			}
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported; the codec cannot see it", path, f.Name)
			}
			fillDistinct(t, v.Field(i), path+"."+f.Name, next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < 3; i++ {
			fillDistinct(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), next)
		}
	case reflect.Uint64, reflect.Uint32:
		v.SetUint(uint64(1)<<(v.Type().Bits()-1) | n)
	case reflect.Int:
		if n%2 == 0 {
			v.SetInt(math.MaxInt - int64(n))
		} else {
			v.SetInt(math.MinInt + int64(n))
		}
	case reflect.Float64:
		v.SetFloat(-math.MaxFloat64 / float64(n))
	case reflect.String:
		v.SetString(fmt.Sprintf("string %d", n))
	default:
		t.Fatalf("%s has kind %s, which this test does not fill", path, v.Kind())
	}
}

// firstDiff names the first leaf at which a and b differ, comparing
// variables by name and skipping the other derived fields.
func firstDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": one side is nil"
			}
			return ""
		}
		return firstDiff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		if a.Type() == reflect.TypeOf(config.Var{}) {
			a, b = a.FieldByName("Name"), b.FieldByName("Name")
			break
		}
		for i := 0; i < a.NumField(); i++ {
			if name := a.Type().Field(i).Name; !derivedFields[name] || name == "Var" {
				if d := firstDiff(a.Field(i), b.Field(i), path+"."+name); d != "" {
					return d
				}
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
	if !a.Equal(b) {
		return fmt.Sprintf("%s: %v, want %v", path, b, a)
	}
	return ""
}

// TestArtifactCodecCoversEveryField fills every field of a phase model
// set — the key, the base resources, every Model and Entry field, the
// phase.Trace and every phase.Profile field, profiler and cache counters
// included — with distinct values and requires the codec's round trip
// to keep each one. A field added to any of those types that the codec
// does not write comes back zero and fails here.
func TestArtifactCodecCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(modelSet{}).NumField(); n != 4 {
		t.Fatalf("modelSet has %d fields; code the new one in codec.go and fill it here", n)
	}
	var next uint64
	key := modelKey{scale: workload.Small}
	fill := func(v any, path string) { fillDistinct(t, reflect.ValueOf(v).Elem(), path, &next) }
	fill(&key.prog, "key.prog")
	fill(&key.space, "key.space")
	fill(&key.sample, "key.sample")
	fill(&key.interval, "key.interval")
	fill(&key.threshold, "key.threshold")
	want := &modelSet{trace: &phase.Trace{}}
	fill(&want.baseRes, "set.baseRes")
	fill(want.trace, "set.trace")
	fill(&want.baseProfiles, "set.baseProfiles")
	vars := config.FullSpace().Vars()
	for i := range 3 {
		m := &Model{Scale: workload.Medium}
		fill(m, fmt.Sprintf("set.models[%d]", i))
		m.Entries = m.Entries[:0]
		for j := range 4 {
			e := Entry{Var: vars[7*i+j]}
			fill(&e, fmt.Sprintf("set.models[%d].Entries[%d]", i, j))
			m.Entries = append(m.Entries, e)
		}
		want.models = append(want.models, m)
	}

	enc := artifactCodec{b: []byte(artifactMagic)}
	enc.set(&key, want)
	dec := artifactCodec{dec: true, b: enc.b[len(artifactMagic):]}
	var gotKey modelKey
	got := &modelSet{}
	dec.set(&gotKey, got)
	if dec.err != nil || len(dec.b) != 0 {
		t.Fatalf("round trip failed: %v (%d bytes left)", dec.err, len(dec.b))
	}
	if gotKey != key {
		t.Fatalf("key round trip: %+v, want %+v", gotKey, key)
	}
	if d := firstDiff(reflect.ValueOf(*want), reflect.ValueOf(*got), "set"); d != "" {
		t.Fatalf("artifact round trip lost a field: %s", d)
	}
	for i, m := range got.models {
		if m.Scale != workload.Medium || m.Space == nil || m.Space.Len() != len(m.Entries) {
			t.Fatalf("model %d: scale %v, space %v not re-bound", i, m.Scale, m.Space)
		}
	}
}
