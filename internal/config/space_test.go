package config

import (
	"strings"
	"sync"
	"testing"
)

func TestFullSpaceHas52Variables(t *testing.T) {
	s := FullSpace()
	if s.Len() != 52 {
		t.Fatalf("full space has %d variables, paper formulation has 52", s.Len())
	}
	for i, v := range s.Vars() {
		if v.Index != i+1 {
			t.Errorf("var %d has index %d, want %d", i, v.Index, i+1)
		}
	}
}

// TestPaperIndexLayout pins the x1..x52 layout to the indices the paper's
// Section 4 enumerates explicitly.
func TestPaperIndexLayout(t *testing.T) {
	s := FullSpace()
	want := map[int]string{
		1:  "icachsets=2",
		3:  "icachsets=4",
		4:  "icachsetsz=1",
		8:  "icachsetsz=32",
		9:  "icachlinesz=4",
		10: "icachreplace=LRR",
		11: "icachreplace=LRU",
		12: "dcachsets=2",
		14: "dcachsets=4",
		15: "dcachsetsz=1",
		19: "dcachsetsz=32",
		20: "dcachlinesz=4",
		21: "dcachreplace=LRR",
		22: "dcachreplace=LRU",
		23: "fastjump=false",
		24: "icchold=false",
		25: "fastdecode=false",
		26: "loaddelay=2",
		27: "fastread=true",
		28: "divider=none",
		29: "infermultdiv=false",
		30: "registers=16",
		46: "registers=32",
		47: "multiplier=iter",
		51: "multiplier=m32x32",
		52: "fastwrite=true",
	}
	for idx, name := range want {
		v, ok := s.ByIndex(idx)
		if !ok {
			t.Errorf("x%d missing", idx)
			continue
		}
		if v.Name != name {
			t.Errorf("x%d = %s, want %s", idx, v.Name, name)
		}
	}
}

func TestEveryVarAppliesToValidConfig(t *testing.T) {
	s := FullSpace()
	base := Default()
	for _, v := range s.Vars() {
		c := v.Apply(base)
		// LRR/LRU variables are individually invalid on a 1-way base
		// cache; the solver's coupling constraints forbid selecting them
		// alone. Everything else must be valid stand-alone.
		switch v.Name {
		case "icachreplace=LRR", "icachreplace=LRU", "dcachreplace=LRR", "dcachreplace=LRU":
			if err := c.Validate(); err == nil {
				t.Errorf("%s alone on 1-way base unexpectedly valid", v.Name)
			}
			continue
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s produces invalid config: %v", v.Name, err)
		}
		if len(c.DiffBase()) != 1 {
			t.Errorf("%s should change exactly one parameter, changed %v", v.Name, c.DiffBase())
		}
	}
}

func TestVarApplyDoesNotMutateInput(t *testing.T) {
	s := FullSpace()
	base := Default()
	v, _ := s.ByIndex(19)
	_ = v.Apply(base)
	if base.DCache.SetSizeKB != 4 {
		t.Error("Apply mutated its input configuration")
	}
}

func TestGroupsPartitionTheSpace(t *testing.T) {
	s := FullSpace()
	groups := s.Groups()
	total := 0
	for _, members := range groups {
		total += len(members)
	}
	if total != s.Len() {
		t.Errorf("groups cover %d vars, want %d", total, s.Len())
	}
	sizes := map[Group]int{
		GroupICacheSets:        3,
		GroupICacheSetSize:     5,
		GroupICacheReplacement: 2,
		GroupDCacheSets:        3,
		GroupDCacheSetSize:     5,
		GroupDCacheReplacement: 2,
		GroupRegWindows:        17,
		GroupMultiplier:        5,
	}
	for g, want := range sizes {
		if got := len(groups[g]); got != want {
			t.Errorf("group %s has %d members, want %d", g, got, want)
		}
	}
}

func TestDecodeAppliesSelection(t *testing.T) {
	s := FullSpace()
	sel := make([]bool, s.Len())
	mark := func(name string) {
		for i, v := range s.Vars() {
			if v.Name == name {
				sel[i] = true
				return
			}
		}
		t.Fatalf("variable %s not found", name)
	}
	mark("dcachsets=2")
	mark("dcachsetsz=16")
	mark("dcachreplace=LRR")
	mark("multiplier=m32x32")
	c, err := s.Decode(sel)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if c.DCache.Sets != 2 || c.DCache.SetSizeKB != 16 || c.DCache.Replacement != LRR || c.IU.Multiplier != Mul32x32 {
		t.Errorf("decoded config wrong: %v", c)
	}
}

func TestDecodeRejectsGroupViolation(t *testing.T) {
	s := FullSpace()
	sel := make([]bool, s.Len())
	sel[15-1] = true // dcachsetsz=1 (x15)
	sel[19-1] = true // dcachsetsz=32 (x19)
	if _, err := s.Decode(sel); err == nil {
		t.Error("two set-size selections in one group should error")
	}
}

func TestDecodeRejectsInvalidCombination(t *testing.T) {
	s := FullSpace()
	sel := make([]bool, s.Len())
	sel[21-1] = true // dcachreplace=LRR without multi-way
	if _, err := s.Decode(sel); err == nil {
		t.Error("LRR on 1-way cache should fail validation")
	}
}

func TestDecodeRejectsWrongLength(t *testing.T) {
	s := FullSpace()
	if _, err := s.Decode(make([]bool, 3)); err == nil {
		t.Error("wrong selection length should error")
	}
}

func TestDecodeEmptySelectionIsBase(t *testing.T) {
	s := FullSpace()
	c, err := s.Decode(make([]bool, s.Len()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if c != Default() {
		t.Errorf("empty selection should decode to base, got %v", c)
	}
}

func TestDcacheGeometrySubspace(t *testing.T) {
	s := DcacheGeometrySpace()
	if s.Len() != 8 {
		t.Fatalf("dcache geometry space has %d vars, want 8 (3 sets + 5 sizes)", s.Len())
	}
	for _, v := range s.Vars() {
		if v.Group != GroupDCacheSets && v.Group != GroupDCacheSetSize {
			t.Errorf("unexpected var %s in dcache geometry space", v.Name)
		}
		if !strings.HasPrefix(v.Name, "dcachsets") {
			t.Errorf("unexpected var name %s", v.Name)
		}
	}
	// Paper indices preserved from the full space.
	if v, ok := s.ByIndex(19); !ok || v.Name != "dcachsetsz=32" {
		t.Errorf("x19 in subspace = %v, want dcachsetsz=32", v)
	}
}

func TestByNameAndByIndexMisses(t *testing.T) {
	s := FullSpace()
	if _, ok := s.ByName("nope"); ok {
		t.Error("ByName should miss for unknown name")
	}
	if _, ok := s.ByIndex(99); ok {
		t.Error("ByIndex should miss for unknown index")
	}
}

func TestExhaustiveCountMatchesFactorisation(t *testing.T) {
	// 4*7*2*3 icache × 4*7*2*3*2*2 dcache × 2*2*2*2*18*2*7 IU × 2 synth.
	want := uint64(168) * 672 * 4032 * 2
	if got := ExhaustiveCount(); got != want {
		t.Errorf("ExhaustiveCount = %d, want %d", got, want)
	}
	// The paper's 3,641,573,376 is exactly 4x the product of the Figure 1
	// value counts: two binary parameters in their count are not itemised
	// in the figure (see DESIGN.md §4).
	paper := uint64(3641573376)
	if got := ExhaustiveCount(); got*4 != paper {
		t.Errorf("reconstructed space %d: expected exactly paper/4 = %d", got, paper/4)
	}
}

func TestParameterValueCount(t *testing.T) {
	if got := ParameterValueCount(); got != 73 {
		t.Errorf("ParameterValueCount = %d, want 73 (reconstructed Figure 1)", got)
	}
}

// TestSharedSpaces: FullSpace and DcacheGeometrySpace hand out one shared
// space each, SpaceFromNames returns them for their own variable lists,
// and any other sub-space is new. Concurrent first calls of Fingerprint
// on a new space all see the one value (run it under -race).
func TestSharedSpaces(t *testing.T) {
	if FullSpace() != FullSpace() || DcacheGeometrySpace() != DcacheGeometrySpace() {
		t.Fatal("FullSpace and DcacheGeometrySpace must return their shared space")
	}
	names := func(s *Space) []string {
		var out []string
		for _, v := range s.Vars() {
			out = append(out, v.Name)
		}
		return out
	}
	for _, shared := range []*Space{FullSpace(), DcacheGeometrySpace()} {
		got, err := SpaceFromNames(names(shared))
		if err != nil {
			t.Fatal(err)
		}
		if got != shared {
			t.Errorf("SpaceFromNames(%d names) built a new space instead of the shared one", shared.Len())
		}
	}

	sub := []string{"dcachsets=2", "fastjump=false", "registers=16"}
	a, err := SpaceFromNames(sub)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpaceFromNames(sub)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == FullSpace() {
		t.Fatal("a sub-space must be a new space")
	}
	want := b.Fingerprint()
	if want == FullSpace().Fingerprint() || want == DcacheGeometrySpace().Fingerprint() {
		t.Fatal("different spaces share a fingerprint")
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := a.Fingerprint(); got != want {
				t.Errorf("fingerprint %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
}
