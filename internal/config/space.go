package config

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
)

// Group identifies a set of decision variables of which at most one may be
// selected (the paper's "parameter validity constraints"). Independent
// binary parameters form singleton groups.
type Group int

const (
	GroupICacheSets Group = iota
	GroupICacheSetSize
	GroupICacheLine
	GroupICacheReplacement
	GroupDCacheSets
	GroupDCacheSetSize
	GroupDCacheLine
	GroupDCacheReplacement
	GroupFastJump
	GroupICCHold
	GroupFastDecode
	GroupLoadDelay
	GroupFastRead
	GroupDivider
	GroupInferMultDiv
	GroupRegWindows
	GroupMultiplier
	GroupFastWrite
	numGroups
)

func (g Group) String() string {
	names := [...]string{
		"icache-sets", "icache-setsize", "icache-line", "icache-replacement",
		"dcache-sets", "dcache-setsize", "dcache-line", "dcache-replacement",
		"fastjump", "icchold", "fastdecode", "loaddelay", "fastread",
		"divider", "infermultdiv", "regwindows", "multiplier", "fastwrite",
	}
	if int(g) < len(names) {
		return names[g]
	}
	return fmt.Sprintf("Group(%d)", int(g))
}

// Var is one binary decision variable: a single parameter-value change away
// from the base configuration. Index follows the paper's x1..x52 layout
// exactly (see DESIGN.md §4).
type Var struct {
	// Index is the 1-based variable index xi of the paper's formulation.
	Index int
	// Name is the human-readable change, e.g. "dcachsetsz=32".
	Name string
	// Group is the at-most-one group this variable belongs to.
	Group Group
	// apply mutates a configuration to include this change.
	apply func(*Config)
}

// Apply returns the base-plus-this-change configuration derived from c.
func (v Var) Apply(c Config) Config {
	v.apply(&c)
	return c
}

// Space is an ordered collection of decision variables with their group
// structure. The full paper space has 52 variables; restricted sub-spaces
// (Section 5's dcache study) carry a subset. A Space is immutable once
// built, so one value is safely shared by every request and goroutine.
type Space struct {
	vars []Var

	fpOnce sync.Once
	fp     string
}

// Vars returns the decision variables in index order. The slice is the
// space's own: callers must not modify it.
func (s *Space) Vars() []Var { return s.vars }

// Len returns the number of decision variables.
func (s *Space) Len() int { return len(s.vars) }

// ByIndex returns the variable with the given 1-based paper index.
func (s *Space) ByIndex(i int) (Var, bool) {
	for _, v := range s.vars {
		if v.Index == i {
			return v, true
		}
	}
	return Var{}, false
}

// ByName returns the variable with the given name.
func (s *Space) ByName(name string) (Var, bool) {
	for _, v := range s.vars {
		if v.Name == name {
			return v, true
		}
	}
	return Var{}, false
}

// Fingerprint returns the stable identity of the space: a hex SHA-256
// over its variable names and group memberships in index order. Two
// spaces with the same fingerprint measure the same single-change
// configurations and formulate the same constraints, which is what lets
// a model cache key on it across independently constructed Space values
// (SpaceFromNames builds a new *Space for every sub-space it is asked
// for). It is computed on first use and kept, since the space is
// immutable.
func (s *Space) Fingerprint() string {
	s.fpOnce.Do(func() {
		h := sha256.New()
		for _, v := range s.vars {
			fmt.Fprintf(h, "%d:%s:%d\n", v.Index, v.Name, v.Group)
		}
		s.fp = hex.EncodeToString(h.Sum(nil))
	})
	return s.fp
}

// Groups returns, for each group present in the space, the indices (into
// Vars()) of its member variables, keyed by Group.
func (s *Space) Groups() map[Group][]int {
	m := make(map[Group][]int)
	for i, v := range s.vars {
		m[v.Group] = append(m[v.Group], i)
	}
	return m
}

// Decode converts a selection (one bool per variable, in Vars() order) into
// a concrete configuration, applying every selected change to the base.
// It errors if the selection violates a group constraint.
func (s *Space) Decode(selected []bool) (Config, error) {
	if len(selected) != len(s.vars) {
		return Config{}, fmt.Errorf("config: selection length %d, want %d", len(selected), len(s.vars))
	}
	perGroup := make(map[Group]string)
	c := Default()
	for i, on := range selected {
		if !on {
			continue
		}
		v := s.vars[i]
		if prev, dup := perGroup[v.Group]; dup {
			return Config{}, fmt.Errorf("config: selection picks both %s and %s from group %s", prev, v.Name, v.Group)
		}
		perGroup[v.Group] = v.Name
		v.apply(&c)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// FullSpace returns the complete 52-variable decision space of the paper's
// Section 4, in x1..x52 order. Every call returns the same shared,
// immutable *Space.
func FullSpace() *Space { return fullSpace() }

// DcacheGeometrySpace returns the restricted sub-space of Section 5's
// near-optimality study: dcache number of sets (2,3,4) and set size
// (1,2,8,16,32 KB) only — 8 variables, 2 groups. Every call returns the
// same shared, immutable *Space.
func DcacheGeometrySpace() *Space { return dcacheGeometrySpace() }

var (
	fullSpace           = sync.OnceValue(buildFullSpace)
	dcacheGeometrySpace = sync.OnceValue(buildDcacheGeometrySpace)
)

func buildFullSpace() *Space {
	var vars []Var
	idx := 0
	add := func(name string, g Group, apply func(*Config)) {
		idx++
		vars = append(vars, Var{Index: idx, Name: name, Group: g, apply: apply})
	}

	// x1..x3: icache sets 2,3,4.
	for _, n := range []int{2, 3, 4} {
		n := n
		add(fmt.Sprintf("icachsets=%d", n), GroupICacheSets, func(c *Config) { c.ICache.Sets = n })
	}
	// x4..x8: icache set size 1,2,8,16,32 KB.
	for _, kb := range []int{1, 2, 8, 16, 32} {
		kb := kb
		add(fmt.Sprintf("icachsetsz=%d", kb), GroupICacheSetSize, func(c *Config) { c.ICache.SetSizeKB = kb })
	}
	// x9: icache line 4 words.
	add("icachlinesz=4", GroupICacheLine, func(c *Config) { c.ICache.LineWords = 4 })
	// x10,x11: icache replacement LRR, LRU.
	add("icachreplace=LRR", GroupICacheReplacement, func(c *Config) { c.ICache.Replacement = LRR })
	add("icachreplace=LRU", GroupICacheReplacement, func(c *Config) { c.ICache.Replacement = LRU })
	// x12..x14: dcache sets 2,3,4.
	for _, n := range []int{2, 3, 4} {
		n := n
		add(fmt.Sprintf("dcachsets=%d", n), GroupDCacheSets, func(c *Config) { c.DCache.Sets = n })
	}
	// x15..x19: dcache set size 1,2,8,16,32 KB.
	for _, kb := range []int{1, 2, 8, 16, 32} {
		kb := kb
		add(fmt.Sprintf("dcachsetsz=%d", kb), GroupDCacheSetSize, func(c *Config) { c.DCache.SetSizeKB = kb })
	}
	// x20: dcache line 4 words.
	add("dcachlinesz=4", GroupDCacheLine, func(c *Config) { c.DCache.LineWords = 4 })
	// x21,x22: dcache replacement LRR, LRU.
	add("dcachreplace=LRR", GroupDCacheReplacement, func(c *Config) { c.DCache.Replacement = LRR })
	add("dcachreplace=LRU", GroupDCacheReplacement, func(c *Config) { c.DCache.Replacement = LRU })
	// x23: fast jump off.
	add("fastjump=false", GroupFastJump, func(c *Config) { c.IU.FastJump = false })
	// x24: ICC hold off.
	add("icchold=false", GroupICCHold, func(c *Config) { c.IU.ICCHold = false })
	// x25: fast decode off.
	add("fastdecode=false", GroupFastDecode, func(c *Config) { c.IU.FastDecode = false })
	// x26: load delay 2.
	add("loaddelay=2", GroupLoadDelay, func(c *Config) { c.IU.LoadDelay = 2 })
	// x27: dcache fast read on.
	add("fastread=true", GroupFastRead, func(c *Config) { c.DCache.FastRead = true })
	// x28: divider none.
	add("divider=none", GroupDivider, func(c *Config) { c.IU.Divider = DivNone })
	// x29: infer mult/div false.
	add("infermultdiv=false", GroupInferMultDiv, func(c *Config) { c.Synth.InferMultDiv = false })
	// x30..x46: register windows 16..32.
	for n := 16; n <= 32; n++ {
		n := n
		add(fmt.Sprintf("registers=%d", n), GroupRegWindows, func(c *Config) { c.IU.RegWindows = n })
	}
	// x47..x51: multiplier alternatives.
	for _, m := range []MultiplierOption{MulIterative, Mul16x16Pipe, Mul32x8, Mul32x16, Mul32x32} {
		m := m
		add(fmt.Sprintf("multiplier=%s", m), GroupMultiplier, func(c *Config) { c.IU.Multiplier = m })
	}
	// x52: dcache fast write on.
	add("fastwrite=true", GroupFastWrite, func(c *Config) { c.DCache.FastWrite = true })

	return &Space{vars: vars}
}

func buildDcacheGeometrySpace() *Space {
	full := FullSpace()
	var vars []Var
	for _, v := range full.vars {
		if v.Group == GroupDCacheSets || v.Group == GroupDCacheSetSize {
			vars = append(vars, v)
		}
	}
	return &Space{vars: vars}
}

// SpaceFromNames builds a sub-space containing the named variables of the
// full paper space, preserving full-space ordering of the names given.
// Used when re-binding persisted models. Names that spell out the full or
// the dcache space return that shared space.
func SpaceFromNames(names []string) (*Space, error) {
	for _, shared := range []*Space{FullSpace(), DcacheGeometrySpace()} {
		if slices.EqualFunc(shared.vars, names, func(v Var, name string) bool { return v.Name == name }) {
			return shared, nil
		}
	}
	full := FullSpace()
	var vars []Var
	for _, name := range names {
		v, ok := full.ByName(name)
		if !ok {
			return nil, fmt.Errorf("config: unknown variable %q", name)
		}
		vars = append(vars, v)
	}
	return &Space{vars: vars}, nil
}

// ParameterGroups returns the number of independently reconfigurable
// parameter groups in the full configuration (the at-most-one groups of
// the paper's Figure 1 space). A runtime reconfiguration rewriting k of
// these groups is a k/ParameterGroups() share of a full reshape — the
// proportion the phase schedule's switch-cost model charges.
func ParameterGroups() int { return int(numGroups) }

// ParameterValueCount returns the number of parameter values in the
// reconstructed Figure 1 space (the paper reports 79; our itemisation of
// Figure 1 yields 73 — see DESIGN.md §4).
func ParameterValueCount() int {
	icache := 4 + 7 + 2 + 3
	dcache := 4 + 7 + 2 + 3 + 2 + 2
	iu := 2 + 2 + 2 + 2 + 18 + 2 + 7
	synth := 2
	return icache + dcache + iu + synth
}

// ExhaustiveCount returns the number of distinct full-factorial
// configurations of the reconstructed Figure 1 space. The paper reports
// 3,641,573,376, exactly 4x this product (see DESIGN.md §4).
func ExhaustiveCount() uint64 {
	icache := uint64(4 * 7 * 2 * 3)
	dcache := uint64(4 * 7 * 2 * 3 * 2 * 2)
	iu := uint64(2 * 2 * 2 * 2 * 18 * 2 * 7)
	synth := uint64(2)
	return icache * dcache * iu * synth
}

// SpaceByName resolves the named decision space: "full" (or "") is the
// 52-variable paper space, "dcache" the Section 5 sub-space. It is the
// one name→space mapping shared by the autoarch CLI and the autoarchd
// daemon.
func SpaceByName(name string) (*Space, error) {
	switch name {
	case "", "full":
		return FullSpace(), nil
	case "dcache":
		return DcacheGeometrySpace(), nil
	}
	return nil, fmt.Errorf("config: unknown space %q (use full or dcache)", name)
}
