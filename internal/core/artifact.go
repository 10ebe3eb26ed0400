package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"liquidarch/internal/measure"
	"liquidarch/internal/phase"
)

// Durable model tier: a built model set — the product of the ~52
// measurements — promoted to an addressable on-disk artifact, so a
// restarted process or a sibling replica skips not only the simulations
// (the measurement store's job) but the 52 store reads and the rebuild
// itself. One artifact per model set, keyed by the same fingerprint
// tuple as the in-memory model layer (program SHA-256, space
// fingerprint, scale, sample, interval, threshold), in the binary format
// of codec.go (variables by name, re-bound on load).
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
// them and must re-detect, so they read as misses. v3 replaced v2's JSON
// document with a binary one (codec.go), which a restarted replica
// decodes without reflection.
const ModelSetVersion = 3

// ArtifactSuffix ends the file name of every model artifact.
const ArtifactSuffix = ".model"

// ModelStore is the durable model tier: one binary artifact per built
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
// over the modelKey's fields. It names the artifact file.
func (k modelKey) artifactID() string {
	h := sha256.New()
	fmt.Fprintf(h, "prog=%s\nspace=%s\nscale=%s\nsample=%d\ninterval=%d\nthreshold=%g\n",
		k.prog, k.space, k.scale, k.sample, k.interval, k.threshold)
	return hex.EncodeToString(h.Sum(nil))
}

func (s *ModelStore) path(key modelKey) string {
	return filepath.Join(s.versionDir(), key.artifactID()+ArtifactSuffix)
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

// decodeModelSet decodes and validates one artifact against key.
func decodeModelSet(data []byte, key modelKey) (*modelSet, error) {
	if len(data) < len(artifactMagic) || string(data[:len(artifactMagic)]) != artifactMagic {
		return nil, fmt.Errorf("core: model artifact has no %q magic", artifactMagic)
	}
	c := artifactCodec{dec: true, b: data[len(artifactMagic):]}
	version := uint64(0)
	c.uint(&version)
	if version != ModelSetVersion {
		return nil, fmt.Errorf("core: model artifact is format v%d, want v%d", version, ModelSetVersion)
	}
	var stored modelKey
	set := &modelSet{}
	c.set(&stored, set)
	if c.err != nil {
		return nil, c.err
	}
	if len(c.b) != 0 {
		return nil, fmt.Errorf("core: model artifact has %d bytes past its end", len(c.b))
	}
	if stored != key {
		return nil, fmt.Errorf("core: model artifact does not answer its key")
	}
	if len(set.models) == 0 {
		return nil, fmt.Errorf("core: model artifact holds no models")
	}
	if tr := set.trace; tr != nil {
		// A phase artifact must be internally consistent: one model per
		// phase beyond the whole-program one, one base profile per phase,
		// one representative signature per phase (the online classifier's
		// references).
		if len(set.models) != 1+tr.Phases || len(set.baseProfiles) != tr.Phases {
			return nil, fmt.Errorf("core: phase model artifact is inconsistent")
		}
		if len(tr.Representatives) != tr.Phases {
			return nil, fmt.Errorf("core: phase model artifact lacks phase representatives")
		}
		// The report, the replay and the online run index the per-phase
		// recommendations by every segment's and assignment's phase, and
		// the replay opens with the first segment.
		if !phaseIDsValid(tr) {
			return nil, fmt.Errorf("core: phase model artifact names a phase it does not hold")
		}
	} else if len(set.models) != 1 {
		return nil, fmt.Errorf("core: plain model artifact holds %d models", len(set.models))
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
	if err := measure.WriteFileAtomic(s.path(key), encodeModelSet(key, set)); err != nil {
		return err
	}
	s.spills.Add(1)
	return nil
}

// encodeModelSet is decodeModelSet's inverse.
func encodeModelSet(key modelKey, set *modelSet) []byte {
	c := artifactCodec{b: make([]byte, 0, 4096)}
	c.b = append(c.b, artifactMagic...)
	version := uint64(ModelSetVersion)
	c.uint(&version)
	c.set(&key, set)
	return c.b
}
