package measure

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
)

// StoreVersion is the on-disk format version. It is part of every entry
// and of the directory layout; bumping it orphans (but does not delete)
// entries written by older code, the same stance core/persist.go takes
// for models. v2 replaced v1's JSON entries with binary ones (entry.go).
const StoreVersion = 2

// manifestName is the store-version handshake file at the store root.
// Replicas sharing one directory agree on the format through it: a
// replica refuses to open a store whose manifest names a newer version
// than it understands, so an old binary never garbage-collects (or
// misreads) a fleet's upgraded store out from under the new replicas.
const manifestName = "store.json"

// manifest is the serialized handshake document.
type manifest struct {
	StoreVersion int `json:"store_version"`
}

// Store is a versioned on-disk spill of measurement reports: one binary
// entry per key under dir/v<version>/, named by a stable content hash of
// (program fingerprint, timing configuration, run options) plus
// EntrySuffix. Unlike the in-memory Cache it survives process restarts,
// which is what turns a ~52-measurement model build into a pure disk
// replay on the second run — the serving analogue of
// core.SaveModel/LoadModel. A hit costs one file read, a decode without
// reflection, and the mtime touch below.
//
// A Store is safe for concurrent use within a process and for concurrent
// sharing across processes (multi-replica deployments mounting one
// directory): writes are temp-file + rename so readers never observe a
// partial entry, loads touch the entry's mtime so the GC sweep is
// LRU-ordered, and corrupt entries are repaired (removed) on read rather
// than wedging any replica.
type Store struct {
	dir  string
	vdir string // dir/v<StoreVersion>

	loads      atomic.Uint64 // successful disk hits
	saves      atomic.Uint64
	repaired   atomic.Uint64 // corrupt entries removed on read
	gcRuns     atomic.Uint64
	gcFiles    atomic.Uint64
	gcBytes    atomic.Uint64
	leaseWins  atomic.Uint64 // claims acquired (this replica measures)
	leaseWaits atomic.Uint64 // waits resolved by another replica's spill

	recordLoads atomic.Uint64 // set records read (record.go)
	recordSaves atomic.Uint64

	// Cached resident-footprint walk for Stats: a metrics scrape on an
	// idle store must not turn into a per-file stat storm on a large
	// shared directory. The cache is busted by local activity (loads,
	// saves, repairs, sweeps — any of which may signal a changed
	// footprint) and expires after statsWalkInterval regardless, so
	// other replicas' writes surface too.
	statsMu       sync.Mutex
	statsAt       time.Time
	statsActivity uint64
	statsEnts     int
	statsBytes    int64
}

// NewStore opens (creating if needed) a report store rooted at dir,
// performing the store-version handshake against any existing manifest.
// The handshake runs before the version directory is created, so
// refusing a newer fleet's store leaves it untouched.
func NewStore(dir string) (*Store, error) {
	s := &Store{dir: dir, vdir: filepath.Join(dir, "v"+strconv.Itoa(StoreVersion))}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("measure: opening store: %w", err)
	}
	if err := s.handshake(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(s.vdir, 0o755); err != nil {
		return nil, fmt.Errorf("measure: opening store: %w", err)
	}
	return s, nil
}

// handshake validates (and if needed writes) the root manifest. A
// missing or corrupt manifest is replaced; a manifest from a newer
// format is a hard error — that directory now belongs to newer replicas.
func (s *Store) handshake() error {
	path := filepath.Join(s.dir, manifestName)
	var m manifest
	data, err := os.ReadFile(path)
	if err == nil && json.Unmarshal(data, &m) == nil {
		if m.StoreVersion > StoreVersion {
			return fmt.Errorf("measure: store %s is format v%d, this binary understands v%d — refusing to share it",
				s.dir, m.StoreVersion, StoreVersion)
		}
		if m.StoreVersion == StoreVersion {
			return nil
		}
	}
	// Absent, corrupt, or older: claim the directory for the current
	// format. Racing replicas write byte-identical content, so the
	// last rename winning is harmless.
	out, err := json.Marshal(manifest{StoreVersion: StoreVersion})
	if err != nil {
		return fmt.Errorf("measure: writing store manifest: %w", err)
	}
	return WriteFileAtomic(path, append(out, '\n'))
}

// WriteFileAtomic writes data to path via a temp file and a rename, so
// a concurrent reader (or a sibling replica) sees the old file or the
// new one, never a torn one. Both durable tiers spill through it. The
// file gets mode 0644, as os.WriteFile would give it, rather than the
// temp file's private 0600: replicas running under another uid read the
// same directory.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("measure: writing %s: %w", filepath.Base(path), err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("measure: writing %s: %w", filepath.Base(path), werr)
	}
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// VersionDir returns the directory holding this format version's
// entries, set records and claims.
func (s *Store) VersionDir() string { return s.vdir }

// path maps a key to its file. The hash input uses the configuration's
// canonical String() of the timing key, so the identity survives process
// restarts (pointer-based Key identity does not). The interval length is
// appended only when set, so every pre-interval-profiling key keeps the
// hash it had before the field existed. The input is formatted into a
// stack buffer: every load pays for its name, so it must not pay for fmt.
func (s *Store) path(key Key) string {
	var buf [512]byte
	b := append(buf[:0], "prog="...)
	b = append(b, Fingerprint(key.Prog)...)
	b = append(b, "\ncfg="...)
	b = key.Cfg.AppendString(b)
	b = append(b, "\nram="...)
	b = strconv.AppendInt(b, int64(key.RAM), 10)
	b = append(b, "\nmaxi="...)
	b = strconv.AppendUint(b, key.MaxI, 10)
	b = append(b, "\nsample="...)
	b = strconv.AppendUint(b, key.Sample, 10)
	b = append(b, '\n')
	if key.Interval > 0 {
		b = append(b, "interval="...)
		b = strconv.AppendUint(b, key.Interval, 10)
		b = append(b, '\n')
	}
	sum := sha256.Sum256(b)
	name := append(buf[:0], s.vdir...)
	name = append(name, filepath.Separator)
	name = hex.AppendEncode(name, sum[:])
	return string(append(name, EntrySuffix...))
}

// Load returns the stored report for key, or ok=false when absent (or
// unreadable — a corrupt entry is treated as a miss, never an error).
//
// Two multi-replica behaviours live here. Read-repair: a corrupt or
// format-mismatched entry is removed on sight, so the next writer
// replaces it and other replicas stop tripping over it (writes are
// atomic renames, so corruption only arises from torn crashes or
// foreign files — a removal lost to a racing re-save costs one
// re-measure, never correctness). LRU touch: a successful load bumps
// the entry's mtime, so the GC sweep evicts cold entries first even
// when the heat comes from a different replica.
func (s *Store) Load(key Key) (*platform.RunReport, bool) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	rep, err := decodeEntry(data)
	if err != nil {
		if os.Remove(path) == nil {
			s.repaired.Add(1)
		}
		return nil, false
	}
	s.loads.Add(1)
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	rep.Config = key.Cfg
	return rep, true
}

// Save writes the report for key. Writes go through a temp file + rename
// so concurrent readers never observe a partial entry.
func (s *Store) Save(key Key, rep *platform.RunReport) error {
	if err := WriteFileAtomic(s.path(key), appendEntry(make([]byte, 0, 512), rep)); err != nil {
		return err
	}
	s.saves.Add(1)
	return nil
}

// Measurement claim lease (cross-replica singleflight, best effort).
//
// Within one process the Cache's flights guarantee each key is simulated
// once; across replicas sharing a directory, two processes missing the
// same key would both simulate and race the (atomic, therefore harmless
// but wasteful) final rename. The claim file dedupes that: before
// simulating, a replica tries to create <entry>.claim with O_EXCL; the
// winner simulates, spills, and removes the claim, while losers poll for
// the winner's entry. Everything is advisory — a crashed winner's claim
// expires after its TTL (stamped inside the file), losers then fall back
// to simulating locally, and a lost claim file never affects
// correctness, only duplicate work.

// claimPollInterval is how often a waiting replica re-checks for the
// claim winner's spilled entry.
const claimPollInterval = 25 * time.Millisecond

// claimPath returns the claim-file path guarding key's entry.
func (s *Store) claimPath(key Key) string {
	return strings.TrimSuffix(s.path(key), EntrySuffix) + ".claim"
}

// TryClaim attempts to become the measuring replica for key. It reports
// true when this replica holds the claim (or when the store is too
// broken to coordinate — then measuring locally is the safe default)
// and false when another replica's unexpired claim stands.
//
// The claim appears atomically with its content: the expiry is written
// to a temp file that is then hard-linked to the claim path (link fails
// when the target exists, preserving the create-exclusive semantics),
// so a contending replica never reads a half-written claim and breaks
// it as corrupt.
func (s *Store) TryClaim(key Key, ttl time.Duration) bool {
	path := s.claimPath(key)
	for attempt := 0; attempt < 2; attempt++ {
		tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-claim-*")
		if err != nil {
			return true // unwritable store: coordinate nothing, just measure
		}
		fmt.Fprintf(tmp, "%d\n", time.Now().Add(ttl).UnixNano())
		tmp.Close()
		lerr := os.Link(tmp.Name(), path)
		os.Remove(tmp.Name())
		if lerr == nil {
			s.leaseWins.Add(1)
			return true
		}
		if !os.IsExist(lerr) {
			return true // filesystem without hard links etc.: just measure
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // winner released between our link and read; retry
			}
			return false
		}
		expiry, perr := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64)
		if perr != nil {
			// Unparsable claim: break it only once its mtime says it is
			// not a just-created file on a filesystem with lagging
			// visibility.
			if info, serr := os.Stat(path); serr == nil && time.Since(info.ModTime()) < ttl {
				return false
			}
			_ = os.Remove(path)
			continue
		}
		if time.Now().UnixNano() > expiry {
			// Expired claim (crashed winner): break it and retry. Racing
			// breakers are fine — at worst two replicas both measure,
			// the pre-lease behaviour.
			_ = os.Remove(path)
			continue
		}
		return false
	}
	return true // repeated stale claims: stop coordinating, measure
}

// ReleaseClaim removes this replica's claim on key.
func (s *Store) ReleaseClaim(key Key) {
	_ = os.Remove(s.claimPath(key))
}

// WaitForEntry polls for the claim winner's spilled entry for key,
// returning it as soon as it lands. It gives up — returning ok=false, so
// the caller simulates locally — when the claim disappears without an
// entry (the winner failed), when ttl elapses (the winner hung), or when
// ctx is cancelled.
func (s *Store) WaitForEntry(ctx context.Context, key Key, ttl time.Duration) (*platform.RunReport, bool) {
	deadline := time.Now().Add(ttl)
	ticker := time.NewTicker(claimPollInterval)
	defer ticker.Stop()
	for {
		if rep, ok := s.Load(key); ok {
			s.leaseWaits.Add(1)
			return rep, true
		}
		if _, err := os.Stat(s.claimPath(key)); os.IsNotExist(err) {
			// Claim gone, entry absent: the winner gave up (failed run,
			// full disk). One last look closes the release-then-check
			// window, then measure locally.
			if rep, ok := s.Load(key); ok {
				s.leaseWaits.Add(1)
				return rep, true
			}
			return nil, false
		}
		if time.Now().After(deadline) {
			return nil, false
		}
		select {
		case <-ctx.Done():
			return nil, false
		case <-ticker.C:
		}
	}
}

// isStoreFile reports whether name is an entry or a set record: the
// files that hold reports, and that the GC and Stats account.
func isStoreFile(name string) bool {
	return strings.HasSuffix(name, EntrySuffix) || strings.HasSuffix(name, RecordSuffix)
}

// Len counts the resident entries (current version only).
func (s *Store) Len() int {
	entries, err := os.ReadDir(s.vdir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), EntrySuffix) {
			n++
		}
	}
	return n
}

// GCPolicy bounds the on-disk store. Zero values disable that bound, so
// the zero policy is a no-op sweep.
type GCPolicy struct {
	// MaxBytes caps the total size of resident entries; the sweep
	// removes least-recently-used (oldest-mtime) entries until the
	// store fits.
	MaxBytes int64
	// MaxAge drops entries not loaded or written within the window.
	MaxAge time.Duration
}

// Enabled reports whether the policy bounds anything.
func (p GCPolicy) Enabled() bool { return p.MaxBytes > 0 || p.MaxAge > 0 }

// GCResult summarizes one sweep.
type GCResult struct {
	// Removed counts the entries and set records deleted, RemovedBytes
	// their size.
	Removed      int
	RemovedBytes int64
	// Entries and Bytes describe what remains.
	Entries int
	Bytes   int64
}

// gcEntry is one stat'ed store file under consideration.
type gcEntry struct {
	path  string
	size  int64
	mtime time.Time
}

// GC sweeps the current-version directory to within the policy: first by
// age, then LRU-by-mtime down to the byte bound. Loads bump mtimes, so
// mtime order is recency-of-use order — an LRU shared with every replica
// mounting the directory, with no lock and no index file. The sweep
// tolerates concurrent writers and concurrent sweeps: files that vanish
// mid-sweep are skipped, and a just-rewritten entry at worst gets
// removed once and re-measured once. Stale temp files (crashed writers)
// older than an hour are collected too.
//
// The unit of eviction is one file. A set record (record.go) is
// self-contained, so it pins nothing: it is evicted by its own mtime,
// and counted in Removed, Entries and Bytes like an entry. A restart
// that reads the record never touches the entries, so under a bound the
// entries of a hot set go cold and are collected before their record.
// The .set manifests older binaries wrote beside the entries are removed
// on sight.
func (s *Store) GC(policy GCPolicy) GCResult {
	s.gcRuns.Add(1)
	now := time.Now()
	// Root-level housekeeping: crashed manifest-rewrite temp files, and
	// v<k> trees orphaned by a StoreVersion bump. Old trees are removed
	// only under an age bound and only once quiescent for MaxAge: the
	// handshake refuses *new* old-version replicas, but one that opened
	// the directory before an upgrade may still be alive — while it
	// keeps hitting disk, its loads and saves keep the old tree's
	// mtimes fresh. Best-effort, not a lease: an old replica idle past
	// MaxAge can lose its tree and pays with re-simulation, never
	// correctness.
	if rootEntries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range rootEntries {
			if e.IsDir() {
				if name, ok := strings.CutPrefix(e.Name(), "v"); ok {
					if k, err := strconv.Atoi(name); err == nil && k < StoreVersion &&
						policy.MaxAge > 0 {
						path := filepath.Join(s.dir, e.Name())
						if now.Sub(newestMtime(path)) > policy.MaxAge {
							_ = os.RemoveAll(path)
						}
					}
				}
				continue
			}
			if !strings.HasPrefix(e.Name(), ".tmp-") {
				continue
			}
			if info, err := e.Info(); err == nil && now.Sub(info.ModTime()) > time.Hour {
				_ = os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	dir := s.vdir
	names, err := os.ReadDir(dir)
	if err != nil {
		return GCResult{}
	}
	var res GCResult
	// remove deletes one file and reports whether it is off the books. A
	// file that cannot be removed (permissions on a shared dir) stays
	// resident and is counted as such, so the metrics don't lie.
	remove := func(ge gcEntry) bool {
		err := os.Remove(ge.path)
		if err == nil {
			res.Removed++
			res.RemovedBytes += ge.size
			return true
		}
		if os.IsNotExist(err) {
			return true // a racing sweep got it
		}
		res.Entries++
		res.Bytes += ge.size
		return false
	}
	var live []gcEntry
	var total int64
	for _, e := range names {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // vanished under us
		}
		path := filepath.Join(dir, e.Name())
		switch {
		case strings.HasPrefix(e.Name(), ".tmp-"):
			if now.Sub(info.ModTime()) > time.Hour {
				_ = os.Remove(path)
			}
		case strings.HasSuffix(e.Name(), ".claim"):
			// Collect leftover claims of crashed replicas honouring the
			// expiry stamped inside the file — a live claim under a long
			// -store-lease TTL must survive the sweep. TryClaim also
			// breaks expired claims on contact; this handles keys never
			// contended again. Unparsable claims fall back to an hour of
			// mtime age.
			if data, rerr := os.ReadFile(path); rerr == nil {
				if expiry, perr := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64); perr == nil {
					if now.UnixNano() > expiry {
						_ = os.Remove(path)
					}
					continue
				}
			}
			if now.Sub(info.ModTime()) > time.Hour {
				_ = os.Remove(path)
			}
		case strings.HasSuffix(e.Name(), ".set"):
			_ = os.Remove(path) // an older binary's set manifest: nothing reads it

		case isStoreFile(e.Name()):
			ge := gcEntry{path: path, size: info.Size(), mtime: info.ModTime()}
			if policy.MaxAge > 0 && now.Sub(ge.mtime) > policy.MaxAge {
				remove(ge)
				continue
			}
			live = append(live, ge)
			total += ge.size
		}
	}
	if policy.MaxBytes > 0 && total > policy.MaxBytes {
		sort.Slice(live, func(a, b int) bool { return live[a].mtime.Before(live[b].mtime) })
		i := 0
		for ; i < len(live) && total > policy.MaxBytes; i++ {
			if remove(live[i]) {
				total -= live[i].size
			}
		}
		live = live[i:]
	}
	for _, ge := range live {
		res.Entries++
		res.Bytes += ge.size
	}
	s.gcFiles.Add(uint64(res.Removed))
	s.gcBytes.Add(uint64(res.RemovedBytes))
	s.noteFootprint(s.loads.Load()+s.saves.Load()+s.repaired.Load()+s.gcRuns.Load()+
		s.recordLoads.Load()+s.recordSaves.Load(), res.Entries, res.Bytes)
	return res
}

// newestMtime returns the freshest modification time in dir (the dir
// itself or any immediate entry) — the "is anyone still using this
// tree" probe behind old-version reclamation.
func newestMtime(dir string) time.Time {
	var newest time.Time
	if info, err := os.Stat(dir); err == nil {
		newest = info.ModTime()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return newest
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.ModTime().After(newest) {
			newest = info.ModTime()
		}
	}
	return newest
}

// StoreStats is a point-in-time snapshot of a Store's counters plus its
// resident footprint. Entries and bytes come from a directory walk (so
// they reflect other replicas' writes too), refreshed at most every
// statsWalkInterval and by every GC sweep — a monitoring system
// scraping /v1/metrics does not trigger a per-file stat storm on a
// large shared directory.
type StoreStats struct {
	Dir     string `json:"dir"`
	Version int    `json:"version"`
	// Entries counts the files that hold reports, per-key entries and
	// set records, and Bytes is their size.
	Entries        int    `json:"entries"`
	Bytes          int64  `json:"bytes"`
	Loads          uint64 `json:"loads"`
	Saves          uint64 `json:"saves"`
	Repaired       uint64 `json:"repaired"`
	GCRuns         uint64 `json:"gc_runs"`
	GCRemoved      uint64 `json:"gc_removed"`
	GCRemovedBytes uint64 `json:"gc_removed_bytes"`
	// LeaseWins counts measurement claims this replica acquired,
	// LeaseWaits the measurements it received from another replica's
	// spill instead of simulating.
	LeaseWins  uint64 `json:"lease_wins,omitempty"`
	LeaseWaits uint64 `json:"lease_waits,omitempty"`
	// RecordLoads counts the set records read, RecordSaves those written.
	RecordLoads uint64 `json:"record_loads,omitempty"`
	RecordSaves uint64 `json:"record_saves,omitempty"`
}

// statsWalkInterval bounds how often Stats re-walks the directory.
const statsWalkInterval = 5 * time.Second

// Stats assembles the current snapshot.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Dir:            s.dir,
		Version:        StoreVersion,
		Loads:          s.loads.Load(),
		Saves:          s.saves.Load(),
		Repaired:       s.repaired.Load(),
		GCRuns:         s.gcRuns.Load(),
		GCRemoved:      s.gcFiles.Load(),
		GCRemovedBytes: s.gcBytes.Load(),
		LeaseWins:      s.leaseWins.Load(),
		LeaseWaits:     s.leaseWaits.Load(),
		RecordLoads:    s.recordLoads.Load(),
		RecordSaves:    s.recordSaves.Load(),
	}
	activity := st.Loads + st.Saves + st.Repaired + st.GCRuns + st.RecordLoads + st.RecordSaves
	s.statsMu.Lock()
	if !s.statsAt.IsZero() && activity == s.statsActivity &&
		time.Since(s.statsAt) < statsWalkInterval {
		st.Entries, st.Bytes = s.statsEnts, s.statsBytes
		s.statsMu.Unlock()
		return st
	}
	s.statsMu.Unlock()

	var ents int
	var bytes int64
	if entries, err := os.ReadDir(s.vdir); err == nil {
		for _, e := range entries {
			if e.IsDir() || !isStoreFile(e.Name()) {
				continue
			}
			if info, err := e.Info(); err == nil {
				ents++
				bytes += info.Size()
			}
		}
	}
	s.noteFootprint(activity, ents, bytes)
	st.Entries, st.Bytes = ents, bytes
	return st
}

// noteFootprint refreshes the cached resident footprint (Stats walks
// and GC sweeps both feed it), stamping the local-activity level the
// figures correspond to.
func (s *Store) noteFootprint(activity uint64, ents int, bytes int64) {
	s.statsMu.Lock()
	s.statsAt = time.Now()
	s.statsActivity = activity
	s.statsEnts = ents
	s.statsBytes = bytes
	s.statsMu.Unlock()
}

// Persistent is a provider that spills every successful measurement to a
// Store and answers future requests from disk. Layer it under a Cache:
// the Cache bounds memory and singleflights, the Store makes results
// survive restarts.
type Persistent struct {
	inner Provider
	store *Store

	gcPolicy GCPolicy
	saven    atomic.Uint64 // spills, for the sweep cadence

	leaseTTL time.Duration
}

// NewPersistent wraps inner with the on-disk store.
func NewPersistent(inner Provider, store *Store) *Persistent {
	return &Persistent{inner: inner, store: store}
}

// DefaultGCEvery is how many spills elapse between GC sweeps. A sweep
// is one readdir + stats, so amortizing over a few dozen writes keeps it
// invisible next to even a single simulation.
const DefaultGCEvery = 64

// EnableGC makes the provider sweep its store to within policy after
// every DefaultGCEvery spills, and once immediately so a long-dormant
// oversized directory is bounded at startup. Returns the receiver for
// chaining.
func (p *Persistent) EnableGC(policy GCPolicy) *Persistent {
	p.gcPolicy = policy
	if policy.Enabled() {
		p.store.GC(policy)
	}
	return p
}

// Store exposes the underlying store (for metrics and manual sweeps).
func (p *Persistent) Store() *Store { return p.store }

// EnableLease turns on the cross-replica measurement claim lease: before
// simulating a key missing from the store, the provider claims it with a
// TTL-stamped claim file, so a replica racing another's in-flight
// simulation of the same key waits for the winner's spill instead of
// duplicating the work. A claim whose holder crashed or hung expires
// after ttl and waiters fall back to simulating locally — the lease only
// ever saves work, never blocks progress. Returns the receiver for
// chaining.
func (p *Persistent) EnableLease(ttl time.Duration) *Persistent {
	p.leaseTTL = ttl
	return p
}

// Measure implements Provider. Traced runs bypass the store. A planned
// configuration (Plan) is answered from the plan's set record when the
// store holds one (record.go), and from its own entry otherwise. The
// enclosing measurement span (opened by the Cache above) is annotated
// with the store outcome ("store": record/hit/miss) and, when the claim
// lease is on, the lease outcome ("lease": win — this replica measured
// under a claim; wait — another replica's spill answered).
func (p *Persistent) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	if opts.TraceWriter != nil {
		return p.inner.Measure(ctx, prog, cfg, opts)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	span := obs.Current(ctx)
	key := KeyFor(prog, cfg, opts)
	rec, err := p.plannedRecord(ctx, prog, opts)
	if err != nil {
		return nil, err
	}
	member, planned := -1, false
	if rec != nil {
		member, planned = rec.index[key.Cfg]
	}
	if planned && rec.members != nil {
		if rep, ok := rec.answer(p.store, member, cfg); ok {
			span.Set(obs.String("store", "record"))
			return rep, nil
		}
	}
	rep, err := p.measureKey(ctx, span, key, prog, cfg, opts)
	if err == nil && planned && rec.members == nil {
		rec.pass(p.store, member, rep)
	}
	return rep, err
}

// measureKey answers one key from its own entry, or measures it and
// spills the entry.
func (p *Persistent) measureKey(ctx context.Context, span *obs.Span, key Key, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	if rep, ok := p.store.Load(key); ok {
		span.Set(obs.String("store", "hit"))
		rep.Config = cfg
		return rep, nil
	}
	span.Set(obs.String("store", "miss"))
	if p.leaseTTL > 0 {
		if p.store.TryClaim(key, p.leaseTTL) {
			span.Set(obs.String("lease", "win"))
			defer p.store.ReleaseClaim(key)
		} else {
			// Another replica is measuring this key: wait for its spill.
			if rep, ok := p.store.WaitForEntry(ctx, key, p.leaseTTL); ok {
				span.Set(obs.String("lease", "wait"))
				rep.Config = cfg
				return rep, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Lease expired or the winner failed: measure locally,
			// unclaimed (the broken claim is the winner's to clean; ours
			// would race a slow winner's release).
			span.Set(obs.String("lease", "expired"))
		}
	}
	rep, err := p.inner.Measure(ctx, prog, cfg, opts)
	if err != nil {
		return nil, err
	}
	// Spill best-effort: a full disk must not fail the measurement.
	_ = p.store.Save(key, rep)
	if p.gcPolicy.Enabled() && p.saven.Add(1)%DefaultGCEvery == 0 {
		p.store.GC(p.gcPolicy)
	}
	return rep, nil
}
