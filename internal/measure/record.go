package measure

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/platform"
)

// Set records (DESIGN.md §14). A request that plans its configurations
// on a trace scope (Plan) — a model build, a sweep — reads them back
// from a Persistent store as one file: the record of the plan. The first
// planned Measure of the scope reads it, and every planned configuration
// is then answered from memory, each caller decoding its own member.
// Without a record the per-key entries answer, and once every planned
// key has passed through the store the record is written, so a store
// filled before records existed gains them on its next rebuild. Per-key
// entries stay: validations and sweeps of other lists read them. The GC
// evicts a record by its own mtime, like an entry.
//
//	magic "LQMS", uvarint StoreVersion, uvarint count,
//	then per member, in plan order: uvarint length, an entry (entry.go).

// RecordSuffix ends the file name of every set record.
const RecordSuffix = ".record"

const recordMagic = "LQMS"

// appendRecord appends the record of reps, in plan order, to b.
func appendRecord(b []byte, reps []*platform.RunReport) []byte {
	b = append(b, recordMagic...)
	b = binary.AppendUvarint(b, StoreVersion)
	b = binary.AppendUvarint(b, uint64(len(reps)))
	var scratch []byte
	for _, rep := range reps {
		scratch = appendEntry(scratch[:0], rep)
		b = binary.AppendUvarint(b, uint64(len(scratch)))
		b = append(b, scratch...)
	}
	return b
}

// splitRecord checks a record's framing and returns its members' entry
// blobs, in plan order, undecoded: each planned caller decodes its own
// (decodeEntry), so the read that every other caller waits on does not
// decode the whole set. It rejects a wrong magic, version or count, a
// member length past the input that remains and bytes left over; the
// count is checked against the input before anything is allocated.
func splitRecord(data []byte) ([][]byte, error) {
	if len(data) < len(recordMagic) || string(data[:len(recordMagic)]) != recordMagic {
		return nil, errEntry
	}
	d := entryDecoder{b: data[len(recordMagic):]}
	if d.uvarint() != StoreVersion {
		return nil, errEntry
	}
	n := d.count(1 + minEntryBytes)
	if d.bad || n == 0 {
		return nil, errEntry
	}
	members := make([][]byte, n)
	for i := range members {
		m := d.count(1)
		if d.bad {
			return nil, errEntry
		}
		members[i], d.b = d.b[:m:m], d.b[m:]
	}
	if len(d.b) != 0 {
		return nil, errEntry
	}
	return members, nil
}

// recordPath names the record of a plan: a content hash of the program
// fingerprint, the normalized run options and the plan's timing keys in
// order.
func (s *Store) recordPath(prog *asm.Program, tk traceKey, keys []config.Config) string {
	b := make([]byte, 0, 256+160*len(keys))
	b = append(b, "record\nprog="...)
	b = append(b, Fingerprint(prog)...)
	b = append(b, "\nram="...)
	b = strconv.AppendInt(b, int64(tk.ram), 10)
	b = append(b, "\nmaxi="...)
	b = strconv.AppendUint(b, tk.maxI, 10)
	b = append(b, "\nsample="...)
	b = strconv.AppendUint(b, tk.sample, 10)
	b = append(b, "\ninterval="...)
	b = strconv.AppendUint(b, tk.interval, 10)
	b = append(b, '\n')
	for _, k := range keys {
		b = append(b, "cfg="...)
		b = k.AppendString(b)
		b = append(b, '\n')
	}
	sum := sha256.Sum256(b)
	return filepath.Join(s.vdir, hex.EncodeToString(sum[:])+RecordSuffix)
}

// loadRecord reads the record at path, expecting n members, and returns
// their undecoded blobs, or nil on a miss. A record whose framing is
// corrupt is removed (read-repair) and reads as a miss, as an entry
// does.
func (s *Store) loadRecord(path string, n int) [][]byte {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	members, err := splitRecord(data)
	if err != nil || len(members) != n {
		s.removeRecord(path)
		return nil
	}
	s.recordLoads.Add(1)
	return members
}

// removeRecord read-repairs a corrupt record.
func (s *Store) removeRecord(path string) {
	if os.Remove(path) == nil {
		s.repaired.Add(1)
	}
}

// saveRecord writes the record of reps to path.
func (s *Store) saveRecord(path string, reps []*platform.RunReport) error {
	if err := WriteFileAtomic(path, appendRecord(make([]byte, 0, 128*len(reps)), reps)); err != nil {
		return err
	}
	s.recordSaves.Add(1)
	return nil
}

// planRecord is one Persistent's record of one planned (program,
// options) within a trace scope.
type planRecord struct {
	// Set by the loader before loaded closes.
	loaded  chan struct{}
	index   map[config.Config]int // planned timing key → member
	path    string
	members [][]byte // the record's entry blobs; nil on a miss

	// Under mu, on a miss: the members that passed through the store,
	// and how many are still to come before the record is written.
	mu     sync.Mutex
	passed []*platform.RunReport
	left   int
}

// recordKey names a planRecord within its scope.
type recordKey struct {
	p  *Persistent
	tk traceKey
}

// plannedRecord returns p's record of (prog, opts) in ctx's trace scope,
// or nil when there is no scope or nothing is planned for (prog, opts).
// The first caller reads the record from disk; later callers wait for
// that read, or for ctx to end.
func (p *Persistent) plannedRecord(ctx context.Context, prog *asm.Program, opts platform.Options) (*planRecord, error) {
	s, ok := ctx.Value(traceScopeKey{}).(*traceScope)
	if !ok {
		return nil, nil
	}
	tk := traceKeyOf(prog, opts)
	rk := recordKey{p: p, tk: tk}
	s.mu.Lock()
	r, found := s.records[rk]
	plan := s.plans[tk]
	if !found && len(plan) > 0 {
		r = &planRecord{loaded: make(chan struct{})}
		if s.records == nil {
			s.records = make(map[recordKey]*planRecord)
		}
		s.records[rk] = r
	}
	s.mu.Unlock()
	switch {
	case r == nil:
		return nil, nil
	case found:
		select {
		case <-r.loaded:
			return r, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// This caller loads: the plan's distinct valid timing keys, in order.
	keys := make([]config.Config, 0, len(plan))
	r.index = make(map[config.Config]int, len(plan))
	for _, cfg := range plan {
		if cfg.Validate() != nil {
			continue
		}
		k := cfg.TimingKey()
		if _, dup := r.index[k]; !dup {
			r.index[k] = len(keys)
			keys = append(keys, k)
		}
	}
	r.path = p.store.recordPath(prog, tk, keys)
	if len(keys) > 0 {
		r.members = p.store.loadRecord(r.path, len(keys))
	}
	if r.members == nil {
		r.passed = make([]*platform.RunReport, len(keys))
		r.left = len(keys)
	}
	close(r.loaded)
	if r.members != nil {
		// One mtime touch per record, for the GC's LRU order, after the
		// waiters are released.
		now := time.Now()
		_ = os.Chtimes(r.path, now, now)
	}
	return r, nil
}

// answer decodes member i for a planned caller, stamped with cfg. A
// member that does not decode removes the record (read-repair) and
// reads as a miss; the per-key path answers it.
func (r *planRecord) answer(store *Store, i int, cfg config.Config) (*platform.RunReport, bool) {
	rep, err := decodeEntry(r.members[i])
	if err != nil {
		store.removeRecord(r.path)
		return nil, false
	}
	rep.Config = cfg
	return rep, true
}

// pass notes that the store answered member i with rep, on a record
// miss. The call that completes the set writes the record, best-effort
// like every spill.
func (r *planRecord) pass(store *Store, i int, rep *platform.RunReport) {
	r.mu.Lock()
	if r.passed[i] != nil {
		r.mu.Unlock()
		return
	}
	r.passed[i] = rep
	r.left--
	complete := r.left == 0
	r.mu.Unlock()
	if complete {
		_ = store.saveRecord(r.path, r.passed)
	}
}
