package config

import (
	"fmt"
	"strings"
	"testing"
)

func TestDefaultMatchesPaperFigure1(t *testing.T) {
	c := Default()
	if c.ICache.Sets != 1 || c.ICache.SetSizeKB != 4 || c.ICache.LineWords != 8 || c.ICache.Replacement != Random {
		t.Errorf("icache default mismatch: %+v", c.ICache)
	}
	if c.DCache.Sets != 1 || c.DCache.SetSizeKB != 4 || c.DCache.LineWords != 8 || c.DCache.Replacement != Random {
		t.Errorf("dcache default mismatch: %+v", c.DCache)
	}
	if c.DCache.FastRead || c.DCache.FastWrite {
		t.Errorf("fast read/write should default off: %+v", c.DCache)
	}
	iu := c.IU
	if !iu.FastJump || !iu.ICCHold || !iu.FastDecode {
		t.Errorf("fast jump / ICC hold / fast decode should default on: %+v", iu)
	}
	if iu.LoadDelay != 1 || iu.RegWindows != 8 || iu.Divider != DivRadix2 || iu.Multiplier != Mul16x16 {
		t.Errorf("IU defaults mismatch: %+v", iu)
	}
	if !c.Synth.InferMultDiv {
		t.Errorf("infer mult/div should default true")
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config should validate, got %v", err)
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"sets-0", func(c *Config) { c.ICache.Sets = 0 }, "sets"},
		{"sets-5", func(c *Config) { c.DCache.Sets = 5 }, "sets"},
		{"setsize-3", func(c *Config) { c.ICache.SetSizeKB = 3 }, "set size"},
		{"setsize-128", func(c *Config) { c.DCache.SetSizeKB = 128 }, "set size"},
		{"line-6", func(c *Config) { c.ICache.LineWords = 6 }, "line size"},
		{"lrr-1way", func(c *Config) { c.DCache.Replacement = LRR }, "LRR"},
		{"lrr-3way", func(c *Config) { c.DCache.Sets = 3; c.DCache.Replacement = LRR }, "LRR"},
		{"lru-1way", func(c *Config) { c.ICache.Replacement = LRU }, "LRU"},
		{"icache-fastread", func(c *Config) { c.ICache.FastRead = true }, "data cache"},
		{"loaddelay-3", func(c *Config) { c.IU.LoadDelay = 3 }, "load delay"},
		{"windows-9", func(c *Config) { c.IU.RegWindows = 9 }, "windows"},
		{"windows-33", func(c *Config) { c.IU.RegWindows = 33 }, "windows"},
		{"mult-bad", func(c *Config) { c.IU.Multiplier = MultiplierOption(99) }, "multiplier"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("expected validation error for %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsLegalPolicies(t *testing.T) {
	c := Default()
	c.DCache.Sets = 2
	c.DCache.Replacement = LRR
	if err := c.Validate(); err != nil {
		t.Errorf("2-way LRR should be valid: %v", err)
	}
	c.DCache.Sets = 4
	c.DCache.Replacement = LRU
	if err := c.Validate(); err != nil {
		t.Errorf("4-way LRU should be valid: %v", err)
	}
	c.IU.RegWindows = 16
	if err := c.Validate(); err != nil {
		t.Errorf("16 windows should be valid: %v", err)
	}
	c.IU.RegWindows = 32
	if err := c.Validate(); err != nil {
		t.Errorf("32 windows should be valid: %v", err)
	}
}

func TestDiffBaseEmptyForDefault(t *testing.T) {
	if d := Default().DiffBase(); len(d) != 0 {
		t.Errorf("default config should have no diff, got %v", d)
	}
}

func TestDiffBaseListsChanges(t *testing.T) {
	c := Default()
	c.DCache.SetSizeKB = 32
	c.IU.Multiplier = Mul32x32
	c.IU.ICCHold = false
	d := strings.Join(c.DiffBase(), " ")
	for _, want := range []string{"dcachsetsz=32", "multiplier=m32x32", "icchold=false"} {
		if !strings.Contains(d, want) {
			t.Errorf("diff %q missing %q", d, want)
		}
	}
}

func TestSetRoundTripsDiffBase(t *testing.T) {
	// Every assignment DiffBase can produce must be accepted by Set.
	c := Default()
	c.ICache.Sets = 2
	c.ICache.SetSizeKB = 2
	c.ICache.LineWords = 4
	c.ICache.Replacement = LRU
	c.DCache.Sets = 4
	c.DCache.SetSizeKB = 16
	c.DCache.LineWords = 4
	c.DCache.Replacement = LRU
	c.DCache.FastRead = true
	c.DCache.FastWrite = true
	c.IU.FastJump = false
	c.IU.ICCHold = false
	c.IU.FastDecode = false
	c.IU.LoadDelay = 2
	c.IU.RegWindows = 24
	c.IU.Divider = DivNone
	c.IU.Multiplier = Mul32x16
	c.Synth.InferMultDiv = false

	rebuilt := Default()
	for _, assignment := range c.DiffBase() {
		if err := rebuilt.Set(assignment); err != nil {
			t.Fatalf("Set(%q): %v", assignment, err)
		}
	}
	if rebuilt != c {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", rebuilt, c)
	}
}

func TestSetRejectsUnknownAndMalformed(t *testing.T) {
	c := Default()
	if err := c.Set("nonsense=1"); err == nil {
		t.Error("unknown parameter should error")
	}
	if err := c.Set("dcachsetsz"); err == nil {
		t.Error("missing value should error")
	}
	if err := c.Set("dcachsetsz=abc"); err == nil {
		t.Error("non-integer should error")
	}
	if err := c.Set("multiplier=m64x64"); err == nil {
		t.Error("unknown multiplier should error")
	}
	if err := c.Set("divider=radix4"); err == nil {
		t.Error("unknown divider should error")
	}
	if err := c.Set("fastjump=maybe"); err == nil {
		t.Error("bad boolean should error")
	}
	if err := c.Set("dcachreplace=mru"); err == nil {
		t.Error("unknown replacement should error")
	}
}

// TestSetRejectsTrailingGarbage: an integer value is the whole trimmed
// value, not a prefix of it.
func TestSetRejectsTrailingGarbage(t *testing.T) {
	for _, assignment := range []string{
		"dcachsetsz=32abc",
		"dcachsetsz= 8 junk",
		"dcachsets=2=3",
		"dcachsetsz=0x10",
	} {
		c := Default()
		if err := c.Set(assignment); err == nil {
			t.Errorf("Set(%q) accepted it: dcache %+v", assignment, c.DCache)
		}
		if c != Default() {
			t.Errorf("Set(%q) changed the configuration it rejected", assignment)
		}
	}
}

// FuzzConfigSet: an assignment either errors, or gives a configuration
// that, when it validates, is rebuilt exactly by applying its DiffBase
// strings through Set to the base.
func FuzzConfigSet(f *testing.F) {
	for _, seed := range []string{
		"dcachsetsz=32", "dcachsetsz=32abc", "dcachsetsz= 8 junk", "dcachsets=2=3",
		"dcachsetsz=0x10", "icache.sets=+2", "registers=16", "loaddelay=-1",
		"multiplier=32x8", "divider=NONE", "fastread=on", "dcachreplace=lru", "infermultdiv=0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, assignment string) {
		c := Default()
		if c.Set(assignment) != nil || c.Validate() != nil {
			return
		}
		rebuilt := Default()
		for _, d := range c.DiffBase() {
			if err := rebuilt.Set(d); err != nil {
				t.Fatalf("Set(%q) of DiffBase of %q: %v", d, assignment, err)
			}
		}
		if rebuilt != c {
			t.Fatalf("%q: rebuilt %v, want %v", assignment, rebuilt, c)
		}
	})
}

func TestTotalKBAndLineBytes(t *testing.T) {
	c := CacheConfig{Sets: 2, SetSizeKB: 16, LineWords: 8}
	if c.TotalKB() != 32 {
		t.Errorf("TotalKB = %d, want 32", c.TotalKB())
	}
	if c.LineBytes() != 32 {
		t.Errorf("LineBytes = %d, want 32", c.LineBytes())
	}
}

func TestStringersCoverAllValues(t *testing.T) {
	for p := Random; p <= LRU; p++ {
		if s := p.String(); strings.Contains(s, "(") {
			t.Errorf("ReplacementPolicy(%d) has no name: %s", int(p), s)
		}
	}
	for m := MulNone; m <= Mul32x32; m++ {
		if s := m.String(); strings.Contains(s, "(") {
			t.Errorf("MultiplierOption(%d) has no name: %s", int(m), s)
		}
	}
	for d := DivNone; d <= DivRadix2; d++ {
		if s := d.String(); strings.Contains(s, "(") {
			t.Errorf("DividerOption(%d) has no name: %s", int(d), s)
		}
	}
	if ReplacementPolicy(9).String() == "" || MultiplierOption(9).String() == "" || DividerOption(9).String() == "" {
		t.Error("out-of-range stringers should still return text")
	}
}

// TestStringMatchesFormat pins String (and AppendString behind it) to
// the fmt rendering it replaced, for the base, every single change of
// the full space and every pair of them (so every value of every
// parameter, in every combination of two), plus out-of-range enums. The
// measurement store hashes this rendering into its entry names, so a
// drift would orphan every stored entry.
func TestStringMatchesFormat(t *testing.T) {
	format := func(c Config) string {
		return fmt.Sprintf("icache=%dx%dKB/l%d/%s dcache=%dx%dKB/l%d/%s/fr=%t/fw=%t iu=[fj=%t icc=%t fd=%t ld=%d win=%d div=%s mul=%s] infer=%t",
			c.ICache.Sets, c.ICache.SetSizeKB, c.ICache.LineWords, c.ICache.Replacement,
			c.DCache.Sets, c.DCache.SetSizeKB, c.DCache.LineWords, c.DCache.Replacement,
			c.DCache.FastRead, c.DCache.FastWrite,
			c.IU.FastJump, c.IU.ICCHold, c.IU.FastDecode, c.IU.LoadDelay, c.IU.RegWindows,
			c.IU.Divider, c.IU.Multiplier, c.Synth.InferMultDiv)
	}
	vars := FullSpace().Vars()
	cfgs := []Config{Default()}
	for i, a := range vars {
		cfgs = append(cfgs, a.Apply(Default()))
		for _, b := range vars[i+1:] {
			cfgs = append(cfgs, b.Apply(a.Apply(Default())))
		}
	}
	odd := Default()
	odd.ICache.Replacement, odd.IU.Divider, odd.IU.Multiplier = 7, 8, 9
	odd.IU.LoadDelay, odd.DCache.Sets = -3, 0
	cfgs = append(cfgs, odd)
	for _, c := range cfgs {
		if got, want := c.String(), format(c); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		if got := string(c.AppendString([]byte("prefix:"))); got != "prefix:"+format(c) {
			t.Fatalf("AppendString = %q, want the prefix kept and %q appended", got, format(c))
		}
	}
	buf := make([]byte, 0, 256)
	c := vars[len(vars)-1].Apply(Default())
	if n := testing.AllocsPerRun(100, func() { buf = c.AppendString(buf[:0]) }); n != 0 {
		t.Errorf("AppendString into a buffer with room allocates %v times, want 0", n)
	}
}
