package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"liquidarch/internal/cache"
	"liquidarch/internal/config"
	"liquidarch/internal/phase"
	"liquidarch/internal/profiler"
	"liquidarch/internal/workload"
)

// The model-artifact format (ModelSetVersion 3): a binary document,
// decoded without reflection, written like the measurement store's
// entries (measure/entry.go). A restarted replica answering from the
// artifact tier reads one per request, and v2's JSON spent most of each
// load in the decoder (DESIGN.md §18).
//
//	magic "LQMA", uvarint ModelSetVersion,
//	the key: prog, space, scale, sample, interval, threshold,
//	the base resources: LUTs, BRAM,
//	len(models), then per model:
//	  App, Scale, BaseCycles, BaseResources (2), BaseEnergy (2),
//	  len(Entries), then per entry: the variable's name, Cycles,
//	    Resources (2), Rho, Lambda, Beta, Energy (2), Epsilon,
//	a phase flag (0 or 1), and for a phase set:
//	  the trace: IntervalInstructions, Threshold, Phases,
//	    len(Assignments) and each, len(Segments) and each segment's
//	    Phase, Start, End, Instructions, Cycles, len(Representatives)
//	    and each as a length and its buckets,
//	  len(base profiles), then per profile: Phase, Intervals,
//	    Instructions, Cycles, Stats (29), ICache (5), DCache (5).
//
// A string is a uvarint length and its bytes, an unsigned integer a
// uvarint, a signed one a zig-zag varint, a float its IEEE 754 bits
// (math.Float64bits) as 8 little-endian bytes, and every list a uvarint
// count.

const artifactMagic = "LQMA"

// The fewest bytes a list element takes, which bound a decoded count
// before anything is allocated: one per integer and string, eight per
// float.
const (
	minModelBytes   = 2 + 3 + 2*8 + 1
	minEntryBytes   = 1 + 3 + 8 + 2 + 3*8
	minSegmentBytes = 5
	minProfileBytes = 4 + profiler.NumCounters + 2*cache.NumCounters
)

var errArtifactShort = errors.New("core: model artifact is cut short or malformed")

// artifactCodec is one direction of the format: an encoder appending to
// b, or (dec) a decoder reading b front to back. Every field list below
// is written once against it and serves both directions, so the encoder
// and the decoder cannot disagree on the layout. Decoding, the first
// failure sticks in err and every later read yields zero.
type artifactCodec struct {
	dec bool
	b   []byte
	err error
}

func (c *artifactCodec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *artifactCodec) uint(p *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *p)
		return
	}
	if c.err != nil {
		*p = 0
		return
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail(errArtifactShort)
		return
	}
	*p, c.b = v, c.b[n:]
}

func (c *artifactCodec) int(p *int) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, int64(*p))
		return
	}
	if c.err != nil {
		*p = 0
		return
	}
	v, n := binary.Varint(c.b)
	if n <= 0 || v < math.MinInt || v > math.MaxInt {
		c.fail(errArtifactShort)
		return
	}
	*p, c.b = int(v), c.b[n:]
}

func (c *artifactCodec) uint32(p *uint32) {
	v := uint64(*p)
	c.uint(&v)
	if v > math.MaxUint32 {
		c.fail(errArtifactShort)
		v = 0
	}
	*p = uint32(v)
}

func (c *artifactCodec) float(p *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
		return
	}
	if c.err != nil || len(c.b) < 8 {
		c.fail(errArtifactShort)
		*p = 0
		return
	}
	*p, c.b = math.Float64frombits(binary.LittleEndian.Uint64(c.b)), c.b[8:]
}

func (c *artifactCodec) str(p *string) {
	n := c.count(len(*p), 1)
	if !c.dec {
		c.b = append(c.b, *p...)
		return
	}
	*p, c.b = string(c.b[:n]), c.b[n:]
}

func (c *artifactCodec) flag(p *bool) {
	v := uint64(0)
	if *p {
		v = 1
	}
	c.uint(&v)
	if v > 1 {
		c.fail(errArtifactShort)
	}
	*p = v == 1
}

// count codes the length n of a list whose elements take at least per
// bytes each. Decoding, it fails before any allocation when the input
// left is too short to hold that many, and returns 0 after a failure.
func (c *artifactCodec) count(n, per int) int {
	v := uint64(n)
	c.uint(&v)
	if c.dec && (c.err != nil || v > uint64(len(c.b)/per)) {
		c.fail(errArtifactShort)
		return 0
	}
	return int(v)
}

// list codes the length of *s and, decoding, makes it that long (nil
// when empty). It returns the length.
func list[T any](c *artifactCodec, s *[]T, per int) int {
	n := c.count(len(*s), per)
	if c.dec {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	return n
}

// scale codes a workload scale by its name.
func (c *artifactCodec) scale(p *workload.Scale) {
	name := p.String()
	c.str(&name)
	if c.dec && c.err == nil {
		var ok bool
		if *p, ok = workload.ParseScale(name); !ok {
			c.fail(fmt.Errorf("core: unknown scale %q in model artifact", name))
		}
	}
}

func (c *artifactCodec) key(k *modelKey) {
	c.str(&k.prog)
	c.str(&k.space)
	c.scale(&k.scale)
	c.uint(&k.sample)
	c.uint(&k.interval)
	c.float(&k.threshold)
}

// set codes a model set under its key.
func (c *artifactCodec) set(k *modelKey, set *modelSet) {
	c.key(k)
	c.int(&set.baseRes.LUTs)
	c.int(&set.baseRes.BRAM)
	for i := range list(c, &set.models, minModelBytes) {
		if c.dec {
			set.models[i] = &Model{}
		}
		c.model(set.models[i])
	}
	phased := set.trace != nil
	c.flag(&phased)
	if !phased {
		return
	}
	if c.dec {
		set.trace = &phase.Trace{}
	}
	c.trace(set.trace)
	for i := range list(c, &set.baseProfiles, minProfileBytes) {
		c.profile(&set.baseProfiles[i])
	}
}

// model codes one model. Its variables travel by name and are re-bound
// against the full paper space on decoding, as LoadModel does.
func (c *artifactCodec) model(m *Model) {
	c.str(&m.App)
	c.scale(&m.Scale)
	c.uint(&m.BaseCycles)
	c.int(&m.BaseResources.LUTs)
	c.int(&m.BaseResources.BRAM)
	c.float(&m.BaseEnergy.DynamicJ)
	c.float(&m.BaseEnergy.StaticJ)
	n := list(c, &m.Entries, minEntryBytes)
	var names []string
	if c.dec {
		names = make([]string, n)
	}
	for i := range n {
		e := &m.Entries[i]
		name := e.Var.Name
		c.str(&name)
		if c.dec {
			names[i] = name
		}
		c.uint(&e.Cycles)
		c.int(&e.Resources.LUTs)
		c.int(&e.Resources.BRAM)
		c.float(&e.Rho)
		c.int(&e.Lambda)
		c.int(&e.Beta)
		c.float(&e.Energy.DynamicJ)
		c.float(&e.Energy.StaticJ)
		c.float(&e.Epsilon)
	}
	if !c.dec || c.err != nil {
		return
	}
	space, err := config.SpaceFromNames(names)
	if err != nil {
		c.fail(fmt.Errorf("core: rebinding model: %w", err))
		return
	}
	m.Space = space
	for i, v := range space.Vars() {
		m.Entries[i].Var = v
	}
}

func (c *artifactCodec) trace(t *phase.Trace) {
	c.uint(&t.IntervalInstructions)
	c.float(&t.Threshold)
	c.int(&t.Phases)
	for i := range list(c, &t.Assignments, 1) {
		c.int(&t.Assignments[i])
	}
	for i := range list(c, &t.Segments, minSegmentBytes) {
		seg := &t.Segments[i]
		c.int(&seg.Phase)
		c.int(&seg.Start)
		c.int(&seg.End)
		c.uint(&seg.Instructions)
		c.uint(&seg.Cycles)
	}
	for i := range list(c, &t.Representatives, 1) {
		rep := &t.Representatives[i]
		for j := range list(c, rep, 1) {
			c.uint32(&(*rep)[j])
		}
	}
}

func (c *artifactCodec) profile(p *phase.Profile) {
	c.int(&p.Phase)
	c.int(&p.Intervals)
	c.uint(&p.Instructions)
	c.uint(&p.Cycles)
	for _, f := range p.Stats.Counters() {
		c.uint(f)
	}
	for _, s := range [2]*cache.Stats{&p.ICache, &p.DCache} {
		for _, f := range s.Counters() {
			c.uint(f)
		}
	}
}
