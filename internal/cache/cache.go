// Package cache implements the configurable first-level caches of the
// LEON2-like processor — the richest knobs of the paper's Figure 1
// decision space: 1-4 ways ("sets" in LEON terminology), 1-64 KB per
// way, 4- or 8-word lines, and random / LRR / LRU replacement.
//
// The cache is a timing model: data lives in the flat RAM (package mem) and
// the cache tracks only tags, so coherence holds by construction. The data
// cache is write-through with no write-allocate, matching LEON2.
//
// The tag store folds the valid bit into a sentinel tag value (DESIGN.md §7):
// no reachable address produces invalidTag, so a hit check is a single load
// and compare. The 1-way (direct-mapped) case — the LEON default for both
// caches — takes a dedicated single-probe fast path with no way loop.
package cache

import (
	"fmt"

	"liquidarch/internal/config"
)

// Stats counts cache events.
type Stats struct {
	ReadAccesses  uint64
	ReadMisses    uint64
	WriteAccesses uint64
	WriteMisses   uint64
	Fills         uint64
}

// NumCounters is the number of counters in a Stats.
const NumCounters = 5

// Counters lists the counters of s in declaration order, for the durable
// codecs (see profiler.Stats.Counters).
func (s *Stats) Counters() [NumCounters]*uint64 {
	return [NumCounters]*uint64{&s.ReadAccesses, &s.ReadMisses, &s.WriteAccesses, &s.WriteMisses, &s.Fills}
}

// ReadHits returns the number of read accesses that hit.
func (s Stats) ReadHits() uint64 { return s.ReadAccesses - s.ReadMisses }

// Sub returns the counter delta s - o (o an earlier snapshot of the same
// cache), for interval profiling.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ReadAccesses:  s.ReadAccesses - o.ReadAccesses,
		ReadMisses:    s.ReadMisses - o.ReadMisses,
		WriteAccesses: s.WriteAccesses - o.WriteAccesses,
		WriteMisses:   s.WriteMisses - o.WriteMisses,
		Fills:         s.Fills - o.Fills,
	}
}

// Add accumulates o into s — the aggregation inverse of Sub.
func (s *Stats) Add(o Stats) {
	s.ReadAccesses += o.ReadAccesses
	s.ReadMisses += o.ReadMisses
	s.WriteAccesses += o.WriteAccesses
	s.WriteMisses += o.WriteMisses
	s.Fills += o.Fills
}

// MissRate returns the read miss ratio, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.ReadAccesses == 0 {
		return 0
	}
	return float64(s.ReadMisses) / float64(s.ReadAccesses)
}

// invalidTag marks an empty line. Tags are addr >> tagShift with
// tagShift >= 6, so no 32-bit address can produce it.
const invalidTag uint32 = ^uint32(0)

// Cache is one set-associative timing cache. A multi-way cache writes its
// counters and LRU clock on every access; the padding keeps them off the
// cache lines of a Cache allocated next to it that another goroutine
// drives (trace walks run concurrently, cpu.Trace.Follow).
type Cache struct {
	_         [64]byte
	ways      int
	lineBytes uint32
	numLines  uint32 // lines per way
	lineShift uint32
	tagShift  uint32 // lineShift + log2(numLines)
	policy    config.ReplacementPolicy

	// tags[way*numLines+line]; invalidTag folds in the valid bit.
	tags []uint32
	// age[way*numLines+line] for LRU: higher is more recent.
	age []uint32
	// rrPtr[line] for LRR: next way to replace.
	rrPtr []uint8
	clock uint32
	rng   uint32
	stats Stats
	_     [64]byte
}

// rngSeed is the reset state of the xorshift random-replacement generator.
const rngSeed uint32 = 0x2545F491

func log2u32(v uint32) uint32 {
	var n uint32
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// New builds a cache from the LEON cache configuration.
func New(cfg config.CacheConfig) (*Cache, error) {
	if cfg.Sets < 1 || cfg.Sets > 4 {
		return nil, fmt.Errorf("cache: %d ways out of range", cfg.Sets)
	}
	lineBytes := uint32(cfg.LineWords * 4)
	if cfg.LineWords != 4 && cfg.LineWords != 8 {
		return nil, fmt.Errorf("cache: %d-word lines unsupported", cfg.LineWords)
	}
	setBytes := uint32(cfg.SetSizeKB) * 1024
	if setBytes == 0 || setBytes%lineBytes != 0 {
		return nil, fmt.Errorf("cache: set size %dKB invalid", cfg.SetSizeKB)
	}
	numLines := setBytes / lineBytes
	if numLines&(numLines-1) != 0 {
		return nil, fmt.Errorf("cache: %d lines per way not a power of two", numLines)
	}
	c := &Cache{
		ways:      cfg.Sets,
		lineBytes: lineBytes,
		numLines:  numLines,
		lineShift: log2u32(lineBytes),
		tagShift:  log2u32(lineBytes) + log2u32(numLines),
		policy:    cfg.Replacement,
		tags:      make([]uint32, cfg.Sets*int(numLines)),
		age:       make([]uint32, cfg.Sets*int(numLines)),
		rrPtr:     make([]uint8, numLines),
		rng:       rngSeed,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c, nil
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line length in bytes.
func (c *Cache) LineBytes() int { return int(c.lineBytes) }

// LineShift returns log2 of the line length in bytes; addresses with equal
// addr>>LineShift() fall on the same line (and therefore the same set and
// tag), which the CPU's fast fetch loop exploits.
func (c *Cache) LineShift() uint32 { return c.lineShift }

// LinesPerWay returns the number of lines in each way.
func (c *Cache) LinesPerWay() int { return int(c.numLines) }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// AddReadHits credits n read accesses that are known hits without probing
// the tag store. The CPU's fast fetch path uses it for back-to-back fetches
// from the line it just accessed: such an access is a guaranteed hit and
// cannot change any replacement decision (the line is already the most
// recent in its set, and the random/LRR state only advances on misses), so
// only the counters need updating.
func (c *Cache) AddReadHits(n uint64) { c.stats.ReadAccesses += n }

// AddWriteHits credits n write accesses that are known hits without
// probing the tag store (the write-through no-allocate data cache changes
// no state on a write hit outside LRU aging; the CPU only uses this when
// the skip is sound).
func (c *Cache) AddWriteHits(n uint64) { c.stats.WriteAccesses += n }

// AddDirectReadMisses credits n read misses whose fills were applied
// directly to the tag store returned by Direct (every direct-mapped read
// miss fills).
func (c *Cache) AddDirectReadMisses(n uint64) {
	c.stats.ReadAccesses += n
	c.stats.ReadMisses += n
	c.stats.Fills += n
}

// AddDirectWriteMisses credits n write misses observed against the tag
// store returned by Direct (write misses do not fill).
func (c *Cache) AddDirectWriteMisses(n uint64) {
	c.stats.WriteAccesses += n
	c.stats.WriteMisses += n
}

// Direct exposes the raw tag store of a direct-mapped cache so the CPU's
// fast path can probe and fill inline: a hit is
// tags[(addr>>lineShift)&mask] == addr>>tagShift, and a read-miss fill
// stores the tag back. ok is false for multi-way caches, which keep their
// replacement bookkeeping behind Read/Write. Counters for inline probes
// are credited in bulk via AddReadHits/AddDirectReadMisses/
// AddWriteHits/AddDirectWriteMisses.
func (c *Cache) Direct() (tags []uint32, lineShift, tagShift, mask uint32, ok bool) {
	if c.ways != 1 {
		return nil, 0, 0, 0, false
	}
	return c.tags, c.lineShift, c.tagShift, c.numLines - 1, true
}

// Flush invalidates every line and clears replacement state (counters are
// preserved).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.age[i] = 0
	}
	for i := range c.rrPtr {
		c.rrPtr[i] = 0
	}
	c.clock = 0
}

// Reset restores the cache to its as-built state: flushed, zero counters,
// and the replacement RNG reseeded. Reusing a core across runs requires
// Reset (not just Flush) so a reused cache makes bit-identical replacement
// decisions to a freshly constructed one.
func (c *Cache) Reset() {
	c.Flush()
	c.rng = rngSeed
	c.stats = Stats{}
}

func (c *Cache) index(addr uint32) (line, tag uint32) {
	line = (addr >> c.lineShift) & (c.numLines - 1)
	tag = addr >> c.tagShift
	return line, tag
}

// lookup returns the way holding addr, or -1.
func (c *Cache) lookup(line, tag uint32) int {
	for w := 0; w < c.ways; w++ {
		if c.tags[uint32(w)*c.numLines+line] == tag {
			return w
		}
	}
	return -1
}

func (c *Cache) touch(way int, line uint32) {
	if c.policy == config.LRU && c.ways > 1 {
		c.clock++
		c.age[uint32(way)*c.numLines+line] = c.clock
	}
}

func (c *Cache) victim(line uint32) int {
	if c.ways == 1 {
		return 0
	}
	// Prefer an invalid way.
	for w := 0; w < c.ways; w++ {
		if c.tags[uint32(w)*c.numLines+line] == invalidTag {
			return w
		}
	}
	switch c.policy {
	case config.LRU:
		best, bestAge := 0, c.age[line]
		for w := 1; w < c.ways; w++ {
			if a := c.age[uint32(w)*c.numLines+line]; a < bestAge {
				best, bestAge = w, a
			}
		}
		return best
	case config.LRR:
		w := int(c.rrPtr[line])
		c.rrPtr[line] = uint8((w + 1) % c.ways)
		return w
	default: // Random
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 17
		c.rng ^= c.rng << 5
		return int(c.rng % uint32(c.ways))
	}
}

// Read performs a read access for addr and reports whether it hit. On a
// miss the line is filled.
func (c *Cache) Read(addr uint32) (hit bool) {
	if c.ways == 1 {
		// Direct-mapped fast path: one load + compare, no way loop, no
		// replacement state.
		c.stats.ReadAccesses++
		i := (addr >> c.lineShift) & (c.numLines - 1)
		tag := addr >> c.tagShift
		if c.tags[i] == tag {
			return true
		}
		c.stats.ReadMisses++
		c.tags[i] = tag
		c.stats.Fills++
		return false
	}
	if c.ReadHit(addr) {
		return true
	}
	c.ReadMiss(addr)
	return false
}

// ReadHit is the hit half of a read, small enough to inline into a
// caller's loop: when addr hits, it counts and ages the access as Read
// does and reports true; on a miss it changes nothing, and the caller
// completes the read with ReadMiss.
func (c *Cache) ReadHit(addr uint32) bool {
	tag := addr >> c.tagShift
	for i := addr >> c.lineShift & (c.numLines - 1); i < uint32(len(c.tags)); i += c.numLines {
		if c.tags[i] == tag {
			c.stats.ReadAccesses++
			if c.policy == config.LRU {
				c.clock++
				c.age[i] = c.clock
			}
			return true
		}
	}
	return false
}

// ReadMiss completes a read of addr that ReadHit found missing: it counts
// the miss and fills a victim way that the replacement policy chooses.
func (c *Cache) ReadMiss(addr uint32) {
	c.stats.ReadAccesses++
	c.stats.ReadMisses++
	line, tag := c.index(addr)
	w := c.victim(line)
	c.tags[uint32(w)*c.numLines+line] = tag
	c.stats.Fills++
	c.touch(w, line)
}

// Write performs a write access (write-through, no-allocate) and reports
// whether it hit. Misses do not fill.
func (c *Cache) Write(addr uint32) (hit bool) {
	c.stats.WriteAccesses++
	if c.ways == 1 {
		i := (addr >> c.lineShift) & (c.numLines - 1)
		if c.tags[i] == addr>>c.tagShift {
			return true
		}
		c.stats.WriteMisses++
		return false
	}
	line, tag := c.index(addr)
	if w := c.lookup(line, tag); w >= 0 {
		c.touch(w, line)
		return true
	}
	c.stats.WriteMisses++
	return false
}

// Contains reports whether addr is currently cached (no statistics or
// replacement side effects).
func (c *Cache) Contains(addr uint32) bool {
	line, tag := c.index(addr)
	return c.lookup(line, tag) >= 0
}
