package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"liquidarch/internal/fpga"
	"liquidarch/internal/measure"
	"liquidarch/internal/phase"
)

// Durable model tier: a built model set — the product of the ~52
// measurements — promoted to an addressable on-disk artifact, so a
// restarted process or a sibling replica skips not only the simulations
// (the measurement store's job) but the 52 store reads and the rebuild
// itself. The format extends core.SaveModel's per-model JSON: one
// document per model set, keyed by the same fingerprint tuple as the
// in-memory model layer (program SHA-256, space fingerprint, scale,
// sample, interval, threshold), with the models serialized exactly as
// SaveModel writes them (variables by name, re-bound on load).
//
// Miss semantics mirror measure.Store: a corrupt, version-mismatched or
// key-mismatched artifact reads as a miss and is removed on sight
// (read-repair); failed builds are never spilled, so an artifact always
// describes a completed build. Writes are temp-file + rename, so
// replicas sharing a directory never observe a partial artifact.

// ModelSetVersion is the on-disk model-artifact format version.
// Artifacts live under dir/v<version>/; bumping it orphans (but does not
// delete) artifacts written by older code. v2 added the trace's
// per-phase representative signatures (phase.Trace.Representatives),
// which online adaptation classifies against — v1 phase artifacts lack
// them and must re-detect, so they read as misses.
const ModelSetVersion = 2

// ModelStore is the durable model tier: one JSON artifact per built
// model set under dir/v<version>/, named by the set's key hash. It is
// safe for concurrent use within a process and for sharing a directory
// across replicas.
type ModelStore struct {
	dir string

	hits   atomic.Uint64 // model sets answered from disk
	misses atomic.Uint64 // lookups that fell through to a build
	spills atomic.Uint64 // completed builds written to disk
}

// NewModelStore opens (creating if needed) a model-artifact store rooted
// at dir.
func NewModelStore(dir string) (*ModelStore, error) {
	s := &ModelStore{dir: dir}
	if err := os.MkdirAll(s.versionDir(), 0o755); err != nil {
		return nil, fmt.Errorf("core: opening model store: %w", err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *ModelStore) Dir() string { return s.dir }

func (s *ModelStore) versionDir() string {
	return filepath.Join(s.dir, fmt.Sprintf("v%d", ModelSetVersion))
}

// artifactID is the durable identity of a model set: the hex SHA-256
// over the modelKey's fields. It names both the artifact file and the
// measurement store's set manifest (measure.Store.SaveSet), so the two
// tiers cross-reference by construction.
func (k modelKey) artifactID() string {
	h := sha256.New()
	fmt.Fprintf(h, "prog=%s\nspace=%s\nscale=%s\nsample=%d\ninterval=%d\nthreshold=%g\n",
		k.prog, k.space, k.scale, k.sample, k.interval, k.threshold)
	return hex.EncodeToString(h.Sum(nil))
}

func (s *ModelStore) path(key modelKey) string {
	return filepath.Join(s.versionDir(), key.artifactID()+".json")
}

// modelSetJSON is the serialized model-set artifact. The key fields are
// stored alongside the payload so a load can verify the artifact really
// answers the requested key (a foreign or hash-colliding file reads as
// corrupt). Models reuse Model's own JSON form, decoded in the same pass
// as the set; phase artifacts carry the detection trace and the base
// run's per-phase profiles, which is everything phaseReport consumes
// beyond the models themselves.
type modelSetJSON struct {
	Version      int             `json:"version"`
	App          string          `json:"app,omitempty"`
	Prog         string          `json:"prog"`
	Space        string          `json:"space"`
	Scale        string          `json:"scale"`
	Sample       uint64          `json:"sample,omitempty"`
	Interval     uint64          `json:"interval,omitempty"`
	Threshold    float64         `json:"threshold,omitempty"`
	BaseLUTs     int             `json:"base_luts"`
	BaseBRAM     int             `json:"base_bram"`
	Models       []modelJSON     `json:"models"`
	Trace        *phase.Trace    `json:"trace,omitempty"`
	BaseProfiles []phase.Profile `json:"base_profiles,omitempty"`
}

// matches reports whether the artifact's stored key fields equal the
// requested key's.
func (a *modelSetJSON) matches(key modelKey) bool {
	return a.Prog == key.prog && a.Space == key.space &&
		a.Scale == key.scale.String() && a.Sample == key.sample &&
		a.Interval == key.interval && a.Threshold == key.threshold
}

// load returns the model set stored for key, or ok=false on a miss. A
// corrupt, version-mismatched or key-mismatched artifact is removed on
// sight (read-repair) and reads as a miss — the caller rebuilds and the
// next spill replaces it.
func (s *ModelStore) load(key modelKey) (*modelSet, bool) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	set, err := decodeModelSet(data, key)
	if err != nil {
		_ = os.Remove(path)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return set, true
}

// decodeModelSet parses and validates one artifact against key.
func decodeModelSet(data []byte, key modelKey) (*modelSet, error) {
	var in modelSetJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: parsing model artifact: %w", err)
	}
	if in.Version != ModelSetVersion {
		return nil, fmt.Errorf("core: model artifact is format v%d, want v%d", in.Version, ModelSetVersion)
	}
	if !in.matches(key) {
		return nil, fmt.Errorf("core: model artifact does not answer its key")
	}
	if len(in.Models) == 0 {
		return nil, fmt.Errorf("core: model artifact holds no models")
	}
	if in.Trace != nil {
		// A phase artifact must be internally consistent: one model per
		// phase beyond the whole-program one, one base profile per phase,
		// one representative signature per phase (the online classifier's
		// references).
		if len(in.Models) != 1+in.Trace.Phases || len(in.BaseProfiles) != in.Trace.Phases {
			return nil, fmt.Errorf("core: phase model artifact is inconsistent")
		}
		if len(in.Trace.Representatives) != in.Trace.Phases {
			return nil, fmt.Errorf("core: phase model artifact lacks phase representatives")
		}
		// The report, the replay and the online run index the per-phase
		// recommendations by every segment's and assignment's phase, and
		// the replay opens with the first segment.
		if !phaseIDsValid(in.Trace) {
			return nil, fmt.Errorf("core: phase model artifact names a phase it does not hold")
		}
	} else if len(in.Models) != 1 {
		return nil, fmt.Errorf("core: plain model artifact holds %d models", len(in.Models))
	}
	set := &modelSet{
		baseRes:      fpga.Resources{LUTs: in.BaseLUTs, BRAM: in.BaseBRAM},
		trace:        in.Trace,
		baseProfiles: in.BaseProfiles,
	}
	set.models = make([]*Model, len(in.Models))
	for i := range in.Models {
		m := &Model{}
		if err := m.fromJSON(&in.Models[i]); err != nil {
			return nil, fmt.Errorf("core: model %d of artifact: %w", i, err)
		}
		set.models[i] = m
	}
	return set, nil
}

// phaseIDsValid reports whether tr has a segment, every segment spans at
// least one interval, and every segment and assignment names one of tr's
// phases.
func phaseIDsValid(tr *phase.Trace) bool {
	if len(tr.Segments) == 0 {
		return false
	}
	for _, seg := range tr.Segments {
		if seg.Phase < 0 || seg.Phase >= tr.Phases || seg.Start < 0 || seg.End < seg.Start {
			return false
		}
	}
	for _, p := range tr.Assignments {
		if p < 0 || p >= tr.Phases {
			return false
		}
	}
	return true
}

// save spills one completed build for key. Only callers holding a
// successfully built set may call it, so an artifact on disk always
// describes a finished build.
func (s *ModelStore) save(key modelKey, set *modelSet) error {
	data, err := encodeModelSet(key, set)
	if err != nil {
		return err
	}
	if err := measure.WriteFileAtomic(s.path(key), data); err != nil {
		return err
	}
	s.spills.Add(1)
	return nil
}

// encodeModelSet is decodeModelSet's inverse. The artifact is compact
// JSON: nothing reads it but decodeModelSet, which takes the indented
// artifacts of earlier versions all the same.
func encodeModelSet(key modelKey, set *modelSet) ([]byte, error) {
	out := modelSetJSON{
		Version:      ModelSetVersion,
		App:          set.models[0].App,
		Prog:         key.prog,
		Space:        key.space,
		Scale:        key.scale.String(),
		Sample:       key.sample,
		Interval:     key.interval,
		Threshold:    key.threshold,
		BaseLUTs:     set.baseRes.LUTs,
		BaseBRAM:     set.baseRes.BRAM,
		Models:       make([]modelJSON, len(set.models)),
		Trace:        set.trace,
		BaseProfiles: set.baseProfiles,
	}
	for i, m := range set.models {
		out.Models[i] = m.toJSON()
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("core: encoding model artifact: %w", err)
	}
	return data, nil
}
