// Package config defines the reconfigurable LEON2 microarchitecture
// parameter space studied by Padmanabhan et al. (IPPS 2006): the processor
// configuration struct, the out-of-the-box defaults of the paper's Figure 1,
// validity rules, and the 52 binary decision variables x1..x52 used by the
// optimizer's Binary Integer Nonlinear Program.
package config

import (
	"fmt"
	"strconv"
	"strings"
)

// ReplacementPolicy selects how a multi-way cache chooses a victim line.
type ReplacementPolicy int

const (
	// Random replacement picks a pseudo-random way (LEON's default).
	Random ReplacementPolicy = iota
	// LRR (least recently replaced) cycles through ways in replacement
	// order. LEON restricts LRR to 2-way caches.
	LRR
	// LRU evicts the least recently used way; valid for any multi-way
	// cache.
	LRU
)

func (p ReplacementPolicy) String() string {
	switch p {
	case Random:
		return "rnd"
	case LRR:
		return "LRR"
	case LRU:
		return "LRU"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// MultiplierOption selects the hardware integer multiplier implementation.
type MultiplierOption int

const (
	// MulNone omits the multiplier; UMUL/SMUL are emulated in software.
	MulNone MultiplierOption = iota
	// MulIterative is a small 1-bit-per-cycle sequential multiplier.
	MulIterative
	// Mul16x16 is the default 16x16 multiplier (4 passes for 32x32).
	Mul16x16
	// Mul16x16Pipe is the 16x16 multiplier with pipeline registers.
	Mul16x16Pipe
	// Mul32x8 performs a 32x32 multiply in four 32x8 steps.
	Mul32x8
	// Mul32x16 performs a 32x32 multiply in two 32x16 steps.
	Mul32x16
	// Mul32x32 is a full single-pass 32x32 multiplier.
	Mul32x32
)

func (m MultiplierOption) String() string {
	switch m {
	case MulNone:
		return "none"
	case MulIterative:
		return "iter"
	case Mul16x16:
		return "m16x16"
	case Mul16x16Pipe:
		return "m16x16p"
	case Mul32x8:
		return "m32x8"
	case Mul32x16:
		return "m32x16"
	case Mul32x32:
		return "m32x32"
	default:
		return fmt.Sprintf("MultiplierOption(%d)", int(m))
	}
}

// DividerOption selects the hardware integer divider implementation.
type DividerOption int

const (
	// DivNone omits the divider; UDIV/SDIV are emulated in software.
	DivNone DividerOption = iota
	// DivRadix2 is the default radix-2 (1-bit-per-cycle) divider.
	DivRadix2
)

func (d DividerOption) String() string {
	switch d {
	case DivNone:
		return "none"
	case DivRadix2:
		return "radix2"
	default:
		return fmt.Sprintf("DividerOption(%d)", int(d))
	}
}

// CacheConfig describes one of the two first-level caches. LEON expresses
// total capacity as Sets (associativity ways, 1-4) times SetSizeKB (the
// capacity of each way).
type CacheConfig struct {
	// Sets is the associativity: 1 to 4 ways.
	Sets int
	// SetSizeKB is the capacity of each way in kilobytes: 1,2,4,8,16,32,64.
	SetSizeKB int
	// LineWords is the cache line length in 32-bit words: 4 or 8.
	LineWords int
	// Replacement selects the victim policy for multi-way configurations.
	Replacement ReplacementPolicy
	// FastRead generates load data combinationally in the same cycle
	// (data cache only). Cycle-neutral at a fixed clock; costs LUTs.
	FastRead bool
	// FastWrite retires stores without an extra buffer cycle (data cache
	// only). Cycle-neutral at a fixed clock; costs LUTs.
	FastWrite bool
}

// TotalKB returns the total cache capacity in kilobytes.
func (c CacheConfig) TotalKB() int { return c.Sets * c.SetSizeKB }

// LineBytes returns the line length in bytes.
func (c CacheConfig) LineBytes() int { return c.LineWords * 4 }

// IUConfig describes the LEON2 integer unit options.
type IUConfig struct {
	// FastJump computes JMPL/CALL targets a stage early, saving one cycle
	// per register jump.
	FastJump bool
	// ICCHold inserts a conservative one-cycle interlock when a
	// conditional branch immediately follows the instruction that sets
	// the condition codes.
	ICCHold bool
	// FastDecode adds decode logic that removes a cycle from taken
	// control transfers.
	FastDecode bool
	// LoadDelay is the load-use interlock distance in cycles: 1 or 2.
	LoadDelay int
	// RegWindows is the number of SPARC register windows: 8 or 16..32.
	RegWindows int
	// Divider selects the hardware divider.
	Divider DividerOption
	// Multiplier selects the hardware multiplier.
	Multiplier MultiplierOption
}

// SynthConfig holds synthesis-tool options that affect resources only.
type SynthConfig struct {
	// InferMultDiv lets the synthesis tool infer multiplier/divider
	// macros instead of instantiating explicit ones.
	InferMultDiv bool
}

// Config is a complete microarchitecture configuration of the soft-core
// processor: the value assignment for every reconfigurable parameter in the
// paper's Figure 1.
type Config struct {
	ICache CacheConfig
	DCache CacheConfig
	IU     IUConfig
	Synth  SynthConfig
}

// Default returns the out-of-the-box LEON configuration — the paper's base
// configuration (Figure 1, "Default" column).
func Default() Config {
	return Config{
		ICache: CacheConfig{Sets: 1, SetSizeKB: 4, LineWords: 8, Replacement: Random},
		DCache: CacheConfig{Sets: 1, SetSizeKB: 4, LineWords: 8, Replacement: Random},
		IU: IUConfig{
			FastJump:   true,
			ICCHold:    true,
			FastDecode: true,
			LoadDelay:  1,
			RegWindows: 8,
			Divider:    DivRadix2,
			Multiplier: Mul16x16,
		},
		Synth: SynthConfig{InferMultDiv: true},
	}
}

var validSetSizes = map[int]bool{1: true, 2: true, 4: true, 8: true, 16: true, 32: true, 64: true}

func validateCache(name string, c CacheConfig, isData bool) error {
	if c.Sets < 1 || c.Sets > 4 {
		return fmt.Errorf("config: %s sets %d out of range 1-4", name, c.Sets)
	}
	if !validSetSizes[c.SetSizeKB] {
		return fmt.Errorf("config: %s set size %dKB not one of 1,2,4,8,16,32,64", name, c.SetSizeKB)
	}
	if c.LineWords != 4 && c.LineWords != 8 {
		return fmt.Errorf("config: %s line size %d words not 4 or 8", name, c.LineWords)
	}
	switch c.Replacement {
	case Random:
	case LRR:
		if c.Sets != 2 {
			return fmt.Errorf("config: %s LRR replacement requires exactly 2 sets, have %d", name, c.Sets)
		}
	case LRU:
		if c.Sets < 2 {
			return fmt.Errorf("config: %s LRU replacement requires a multi-way cache, have %d set", name, c.Sets)
		}
	default:
		return fmt.Errorf("config: %s unknown replacement policy %d", name, int(c.Replacement))
	}
	if !isData && (c.FastRead || c.FastWrite) {
		return fmt.Errorf("config: %s fast read/write apply to the data cache only", name)
	}
	return nil
}

// Validate reports whether the configuration satisfies every structural
// rule LEON imposes (ranges, replacement-vs-associativity couplings).
// It does not check device resource feasibility; see package fpga.
func (c Config) Validate() error {
	if err := validateCache("icache", c.ICache, false); err != nil {
		return err
	}
	if err := validateCache("dcache", c.DCache, true); err != nil {
		return err
	}
	iu := c.IU
	if iu.LoadDelay != 1 && iu.LoadDelay != 2 {
		return fmt.Errorf("config: load delay %d not 1 or 2", iu.LoadDelay)
	}
	if iu.RegWindows != 8 && (iu.RegWindows < 16 || iu.RegWindows > 32) {
		return fmt.Errorf("config: register windows %d not 8 or 16-32", iu.RegWindows)
	}
	if iu.Divider != DivNone && iu.Divider != DivRadix2 {
		return fmt.Errorf("config: unknown divider option %d", int(iu.Divider))
	}
	if iu.Multiplier < MulNone || iu.Multiplier > Mul32x32 {
		return fmt.Errorf("config: unknown multiplier option %d", int(iu.Multiplier))
	}
	return nil
}

// String renders the configuration compactly, one subsystem per segment.
func (c Config) String() string { return string(c.AppendString(nil)) }

// AppendString appends String's rendering of c to b and returns the
// extended buffer. It is the one formatter behind String, and it
// allocates nothing when b has room, so a caller hashing configurations
// (the measurement store names its entries this way) can format into a
// stack buffer.
func (c Config) AppendString(b []byte) []byte {
	b = append(b, "icache="...)
	b = c.ICache.appendGeometry(b)
	b = append(b, " dcache="...)
	b = c.DCache.appendGeometry(b)
	b = append(b, "/fr="...)
	b = strconv.AppendBool(b, c.DCache.FastRead)
	b = append(b, "/fw="...)
	b = strconv.AppendBool(b, c.DCache.FastWrite)
	b = append(b, " iu=[fj="...)
	b = strconv.AppendBool(b, c.IU.FastJump)
	b = append(b, " icc="...)
	b = strconv.AppendBool(b, c.IU.ICCHold)
	b = append(b, " fd="...)
	b = strconv.AppendBool(b, c.IU.FastDecode)
	b = append(b, " ld="...)
	b = strconv.AppendInt(b, int64(c.IU.LoadDelay), 10)
	b = append(b, " win="...)
	b = strconv.AppendInt(b, int64(c.IU.RegWindows), 10)
	b = append(b, " div="...)
	b = append(b, c.IU.Divider.String()...)
	b = append(b, " mul="...)
	b = append(b, c.IU.Multiplier.String()...)
	b = append(b, "] infer="...)
	return strconv.AppendBool(b, c.Synth.InferMultDiv)
}

// appendGeometry appends "<sets>x<size>KB/l<line>/<policy>".
func (c CacheConfig) appendGeometry(b []byte) []byte {
	b = strconv.AppendInt(b, int64(c.Sets), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(c.SetSizeKB), 10)
	b = append(b, "KB/l"...)
	b = strconv.AppendInt(b, int64(c.LineWords), 10)
	b = append(b, '/')
	return append(b, c.Replacement.String()...)
}

// TimingKey returns a copy of the configuration with every parameter that
// cannot affect simulated timing normalised to the base value: the data
// cache fast-read/fast-write options are cycle-neutral at a fixed clock
// (they cost LUTs only) and InferMultDiv is a synthesis-resource choice.
// Two configurations with equal TimingKeys produce bit-identical runs, so
// the measurement cache uses it as the simulation identity.
func (c Config) TimingKey() Config {
	base := Default()
	c.DCache.FastRead = base.DCache.FastRead
	c.DCache.FastWrite = base.DCache.FastWrite
	c.Synth.InferMultDiv = base.Synth.InferMultDiv
	return c
}

// DiffBase lists the parameters on which c differs from the base
// configuration, in the "param=value" notation the paper's result tables
// use. An empty slice means c is the base configuration.
func (c Config) DiffBase() []string {
	base := Default()
	var d []string
	add := func(cond bool, format string, args ...any) {
		if cond {
			d = append(d, fmt.Sprintf(format, args...))
		}
	}
	add(c.ICache.Sets != base.ICache.Sets, "icachsets=%d", c.ICache.Sets)
	add(c.ICache.SetSizeKB != base.ICache.SetSizeKB, "icachsetsz=%d", c.ICache.SetSizeKB)
	add(c.ICache.LineWords != base.ICache.LineWords, "icachlinesz=%d", c.ICache.LineWords)
	add(c.ICache.Replacement != base.ICache.Replacement, "icachreplace=%s", c.ICache.Replacement)
	add(c.DCache.Sets != base.DCache.Sets, "dcachsets=%d", c.DCache.Sets)
	add(c.DCache.SetSizeKB != base.DCache.SetSizeKB, "dcachsetsz=%d", c.DCache.SetSizeKB)
	add(c.DCache.LineWords != base.DCache.LineWords, "dcachlinesz=%d", c.DCache.LineWords)
	add(c.DCache.Replacement != base.DCache.Replacement, "dcachreplace=%s", c.DCache.Replacement)
	add(c.DCache.FastRead != base.DCache.FastRead, "fastread=%t", c.DCache.FastRead)
	add(c.DCache.FastWrite != base.DCache.FastWrite, "fastwrite=%t", c.DCache.FastWrite)
	add(c.IU.FastJump != base.IU.FastJump, "fastjump=%t", c.IU.FastJump)
	add(c.IU.ICCHold != base.IU.ICCHold, "icchold=%t", c.IU.ICCHold)
	add(c.IU.FastDecode != base.IU.FastDecode, "fastdecode=%t", c.IU.FastDecode)
	add(c.IU.LoadDelay != base.IU.LoadDelay, "loaddelay=%d", c.IU.LoadDelay)
	add(c.IU.RegWindows != base.IU.RegWindows, "registers=%d", c.IU.RegWindows)
	add(c.IU.Divider != base.IU.Divider, "divider=%s", c.IU.Divider)
	add(c.IU.Multiplier != base.IU.Multiplier, "multiplier=%s", c.IU.Multiplier)
	add(c.Synth.InferMultDiv != base.Synth.InferMultDiv, "infermultdiv=%t", c.Synth.InferMultDiv)
	return d
}

// Set assigns one parameter by its textual name (the names accepted are the
// ones DiffBase produces, e.g. "dcachsetsz=32" or "multiplier=m32x32").
// It allows CLI tools and tests to build configurations declaratively.
func (c *Config) Set(assignment string) error {
	name, value, ok := strings.Cut(assignment, "=")
	if !ok {
		return fmt.Errorf("config: assignment %q is not of the form param=value", assignment)
	}
	name = strings.TrimSpace(strings.ToLower(name))
	value = strings.TrimSpace(value)

	parseInt := func() (int, error) {
		n, err := strconv.Atoi(value)
		if err != nil {
			return 0, fmt.Errorf("config: parameter %s needs an integer, got %q", name, value)
		}
		return n, nil
	}
	parseBool := func() (bool, error) {
		switch strings.ToLower(value) {
		case "true", "on", "enable", "enabled", "1":
			return true, nil
		case "false", "off", "disable", "disabled", "0":
			return false, nil
		}
		return false, fmt.Errorf("config: parameter %s needs a boolean, got %q", name, value)
	}
	parseRepl := func() (ReplacementPolicy, error) {
		switch strings.ToLower(value) {
		case "rnd", "random":
			return Random, nil
		case "lrr":
			return LRR, nil
		case "lru":
			return LRU, nil
		}
		return Random, fmt.Errorf("config: unknown replacement policy %q", value)
	}

	switch name {
	case "icachsets", "icache.sets":
		n, err := parseInt()
		if err != nil {
			return err
		}
		c.ICache.Sets = n
	case "icachsetsz", "icache.setsize":
		n, err := parseInt()
		if err != nil {
			return err
		}
		c.ICache.SetSizeKB = n
	case "icachlinesz", "icache.linesize":
		n, err := parseInt()
		if err != nil {
			return err
		}
		c.ICache.LineWords = n
	case "icachreplace", "icache.replacement":
		p, err := parseRepl()
		if err != nil {
			return err
		}
		c.ICache.Replacement = p
	case "dcachsets", "dcache.sets":
		n, err := parseInt()
		if err != nil {
			return err
		}
		c.DCache.Sets = n
	case "dcachsetsz", "dcache.setsize":
		n, err := parseInt()
		if err != nil {
			return err
		}
		c.DCache.SetSizeKB = n
	case "dcachlinesz", "dcache.linesize":
		n, err := parseInt()
		if err != nil {
			return err
		}
		c.DCache.LineWords = n
	case "dcachreplace", "dcache.replacement":
		p, err := parseRepl()
		if err != nil {
			return err
		}
		c.DCache.Replacement = p
	case "fastread", "dcache.fastread":
		b, err := parseBool()
		if err != nil {
			return err
		}
		c.DCache.FastRead = b
	case "fastwrite", "dcache.fastwrite":
		b, err := parseBool()
		if err != nil {
			return err
		}
		c.DCache.FastWrite = b
	case "fastjump", "iu.fastjump":
		b, err := parseBool()
		if err != nil {
			return err
		}
		c.IU.FastJump = b
	case "icchold", "iu.icchold":
		b, err := parseBool()
		if err != nil {
			return err
		}
		c.IU.ICCHold = b
	case "fastdecode", "iu.fastdecode":
		b, err := parseBool()
		if err != nil {
			return err
		}
		c.IU.FastDecode = b
	case "loaddelay", "iu.loaddelay":
		n, err := parseInt()
		if err != nil {
			return err
		}
		c.IU.LoadDelay = n
	case "registers", "regwindows", "iu.regwindows":
		n, err := parseInt()
		if err != nil {
			return err
		}
		c.IU.RegWindows = n
	case "divider", "iu.divider":
		switch strings.ToLower(value) {
		case "none":
			c.IU.Divider = DivNone
		case "radix2":
			c.IU.Divider = DivRadix2
		default:
			return fmt.Errorf("config: unknown divider %q", value)
		}
	case "multiplier", "iu.multiplier":
		switch strings.ToLower(value) {
		case "none":
			c.IU.Multiplier = MulNone
		case "iter", "iterative":
			c.IU.Multiplier = MulIterative
		case "m16x16", "16x16":
			c.IU.Multiplier = Mul16x16
		case "m16x16p", "m16x16pipe", "16x16p":
			c.IU.Multiplier = Mul16x16Pipe
		case "m32x8", "32x8":
			c.IU.Multiplier = Mul32x8
		case "m32x16", "32x16":
			c.IU.Multiplier = Mul32x16
		case "m32x32", "32x32":
			c.IU.Multiplier = Mul32x32
		default:
			return fmt.Errorf("config: unknown multiplier %q", value)
		}
	case "infermultdiv", "synth.infermultdiv":
		b, err := parseBool()
		if err != nil {
			return err
		}
		c.Synth.InferMultDiv = b
	default:
		return fmt.Errorf("config: unknown parameter %q", name)
	}
	return nil
}
