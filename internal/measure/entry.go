package measure

import (
	"encoding/binary"
	"errors"
	"math"

	"liquidarch/internal/cache"
	"liquidarch/internal/platform"
	"liquidarch/internal/profiler"
)

// The store's entry format (StoreVersion 2): a small binary record,
// decoded without reflection. A restarted replica rebuilding a model
// reads ~26 entries per request, and the JSON entries of v1 spent most of
// each load in the decoder rather than in the read (DESIGN.md §14).
//
//	magic "LQMR", uvarint StoreVersion,
//	Stats (29 uvarints), ICache (5), DCache (5),
//	ExitCode, Checksum, len(Console) + bytes, Sampled (0 or 1),
//	len(Intervals), then per interval:
//	  Index, Instructions, Stats (29), ICache (5), DCache (5),
//	  len(Signature), then one uvarint per bucket.
//
// Every integer is a uvarint. The configuration is not stored: a load
// stamps the caller's in, as the cache layers do.

// EntrySuffix ends the file name of every measurement entry. The GC,
// Len, Stats and the claim files all go by it.
const EntrySuffix = ".report"

const entryMagic = "LQMR"

const (
	statsFields = profiler.NumCounters
	cacheFields = cache.NumCounters

	// minIntervalBytes is the fewest bytes an encoded interval takes:
	// one per uvarint (Index, Instructions, the 39 counters, the
	// signature length).
	minIntervalBytes = 2 + statsFields + 2*cacheFields + 1

	// minEntryBytes is the fewest bytes an encoded entry takes: the magic,
	// then one per uvarint (the version, the 39 counters, ExitCode,
	// Checksum, the Console length, Sampled, the interval count).
	minEntryBytes = len(entryMagic) + 1 + statsFields + 2*cacheFields + 5
)

// errEntry is every decoding failure: the caller read-repairs the entry
// whatever the cause.
var errEntry = errors.New("measure: malformed store entry")

// appendEntry appends the encoding of rep to b.
func appendEntry(b []byte, rep *platform.RunReport) []byte {
	b = append(b, entryMagic...)
	b = binary.AppendUvarint(b, StoreVersion)
	b = appendCounters(b, &rep.Stats, &rep.ICache, &rep.DCache)
	b = binary.AppendUvarint(b, uint64(rep.ExitCode))
	b = binary.AppendUvarint(b, uint64(rep.Checksum))
	b = binary.AppendUvarint(b, uint64(len(rep.Console)))
	b = append(b, rep.Console...)
	sampled := uint64(0)
	if rep.Sampled {
		sampled = 1
	}
	b = binary.AppendUvarint(b, sampled)
	b = binary.AppendUvarint(b, uint64(len(rep.Intervals)))
	for i := range rep.Intervals {
		iv := &rep.Intervals[i]
		b = binary.AppendUvarint(b, uint64(iv.Index))
		b = binary.AppendUvarint(b, iv.Instructions)
		b = appendCounters(b, &iv.Stats, &iv.ICache, &iv.DCache)
		b = binary.AppendUvarint(b, uint64(len(iv.Signature)))
		for _, v := range iv.Signature {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b
}

func appendCounters(b []byte, s *profiler.Stats, ic, dc *cache.Stats) []byte {
	for _, p := range s.Counters() {
		b = binary.AppendUvarint(b, *p)
	}
	for _, c := range [2]*cache.Stats{ic, dc} {
		for _, p := range c.Counters() {
			b = binary.AppendUvarint(b, *p)
		}
	}
	return b
}

// entryDecoder reads an entry front to back. The first failure sticks:
// every later read returns zero, and decodeEntry reports the failure.
type entryDecoder struct {
	b   []byte
	bad bool
}

func (d *entryDecoder) uvarint() uint64 {
	if len(d.b) > 0 && d.b[0] < 0x80 && !d.bad {
		// One byte: most counters of a run are small.
		v := uint64(d.b[0])
		d.b = d.b[1:]
		return v
	}
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bounded reads a value that must not exceed limit.
func (d *entryDecoder) bounded(limit uint64) uint64 {
	v := d.uvarint()
	if v > limit {
		d.bad = true
		return 0
	}
	return v
}

// count reads a length whose elements take at least per bytes each. It
// fails before any allocation when the remaining input is too short to
// hold that many.
func (d *entryDecoder) count(per int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/per) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *entryDecoder) counters(s *profiler.Stats, ic, dc *cache.Stats) {
	for _, p := range s.Counters() {
		*p = d.uvarint()
	}
	for _, c := range [2]*cache.Stats{ic, dc} {
		for _, p := range c.Counters() {
			*p = d.uvarint()
		}
	}
}

// decodeEntry decodes one entry. It rejects a wrong magic or version, a
// truncated field, bytes left over, a length longer than the input that
// remains, and a value too large for its field.
func decodeEntry(data []byte) (*platform.RunReport, error) {
	if len(data) < len(entryMagic) || string(data[:len(entryMagic)]) != entryMagic {
		return nil, errEntry
	}
	d := entryDecoder{b: data[len(entryMagic):]}
	if d.uvarint() != StoreVersion {
		return nil, errEntry
	}
	rep := &platform.RunReport{}
	d.counters(&rep.Stats, &rep.ICache, &rep.DCache)
	rep.ExitCode = uint32(d.bounded(math.MaxUint32))
	rep.Checksum = uint32(d.bounded(math.MaxUint32))
	if n := d.count(1); n > 0 {
		rep.Console = string(d.b[:n])
		d.b = d.b[n:]
	}
	rep.Sampled = d.bounded(1) == 1
	if n := d.count(minIntervalBytes); n > 0 {
		rep.Intervals = make([]platform.Interval, n)
		for i := range rep.Intervals {
			iv := &rep.Intervals[i]
			iv.Index = int(d.bounded(math.MaxInt))
			iv.Instructions = d.uvarint()
			d.counters(&iv.Stats, &iv.ICache, &iv.DCache)
			if m := d.count(1); m > 0 {
				iv.Signature = make([]uint32, m)
				for j := range iv.Signature {
					iv.Signature[j] = uint32(d.bounded(math.MaxUint32))
				}
			}
			if d.bad {
				break
			}
		}
	}
	if d.bad || len(d.b) != 0 {
		return nil, errEntry
	}
	return rep, nil
}
