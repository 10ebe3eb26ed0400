// Package core implements the paper's contribution: automatic
// application-specific reconfiguration of the soft-core processor
// microarchitecture.
//
// The technique (paper Sections 3-4):
//
//  1. Start from the base (out-of-the-box) configuration; measure its
//     application runtime (cycle counter) and chip cost (synthesis).
//  2. Perturb one parameter value at a time — 52 binary decision
//     variables — and measure each single-change configuration. Cost is
//     linear in the number of parameter values instead of exponential.
//  3. Express the percentage deltas as a constrained Binary Integer
//     Nonlinear Program: minimize Σ w1·ρᵢxᵢ + w2·(λᵢ+βᵢ)xᵢ subject to
//     at-most-one groups, LEON's LRR/LRU validity couplings, and the
//     device resource constraints, with the cache BRAM constraint in the
//     paper's nonlinear sets×setsize product form.
//  4. Solve; decode the assignment into the recommended configuration;
//     optionally validate with an actual build + run.
package core

import (
	"fmt"
	"sort"

	"liquidarch/internal/binlp"
	"liquidarch/internal/config"
	"liquidarch/internal/fpga"
	"liquidarch/internal/power"
	"liquidarch/internal/workload"
)

// Entry is the measured cost of one decision variable: the percentage
// deltas of the single-change configuration against the base.
type Entry struct {
	// Var is the decision variable.
	Var config.Var
	// Cycles is the measured runtime of the single-change configuration.
	// For replacement-policy variables (invalid stand-alone on a 1-way
	// base cache) it is the companion-pair measurement; see buildModels.
	Cycles uint64
	// Resources is the synthesized resource usage of the configuration.
	Resources fpga.Resources
	// Rho is the runtime delta over base, in percent (ρᵢ).
	Rho float64
	// Lambda is the LUT delta over base, in integer percentage points (λᵢ).
	Lambda int
	// Beta is the BRAM delta over base, in integer percentage points (βᵢ).
	Beta int
	// Energy is the estimated energy of the configuration's run.
	Energy power.Estimate
	// Epsilon is the energy delta over base, in percent (εᵢ) — the
	// extension dimension the paper lists as future work.
	Epsilon float64
}

// Model is the approximate cost model of Section 3: per-variable measured
// deltas, assumed independent.
type Model struct {
	// App names the application the model was built for.
	App string
	// Scale is the workload scale used for the runtime measurements.
	Scale workload.Scale
	// Space is the decision-variable space (full paper space or a
	// restricted sub-space).
	Space *config.Space
	// BaseCycles is the measured runtime of the base configuration.
	BaseCycles uint64
	// BaseResources is the synthesized base resource usage.
	BaseResources fpga.Resources
	// BaseEnergy is the estimated energy of the base run.
	BaseEnergy power.Estimate
	// Entries holds one measurement per decision variable, in space
	// order.
	Entries []Entry
}

// Weights are the objective weights of Section 4.1, extended with the
// energy dimension of the paper's future work.
type Weights struct {
	// W1 scales the runtime cost (ρ).
	W1 float64 `json:"w1"`
	// W2 scales the chip cost (λ+β).
	W2 float64 `json:"w2"`
	// W3 scales the energy cost (ε); zero reproduces the paper's
	// two-dimensional objective exactly.
	W3 float64 `json:"w3,omitempty"`
}

// RuntimeWeights are the paper's Section 6.1 setting: optimize application
// performance over chip resources.
func RuntimeWeights() Weights { return Weights{W1: 100, W2: 1} }

// ResourceWeights are the paper's Section 6.2 setting: optimize chip
// resources over performance.
func ResourceWeights() Weights { return Weights{W1: 1, W2: 100} }

// RuntimeOnlyWeights are the Section 5 dcache-study setting (w2 = 0).
func RuntimeOnlyWeights() Weights { return Weights{W1: 100, W2: 0} }

// EnergyWeights optimize energy over runtime and resources — the
// future-work extension.
func EnergyWeights() Weights { return Weights{W1: 1, W2: 1, W3: 100} }

// groupIndex returns, for each variable position in the space, its group.
func groupIndices(space *config.Space) map[config.Group][]int {
	return space.Groups()
}

// Formulate builds the Section 4 BINLP from the model's measured deltas.
func (m *Model) Formulate(w Weights) *binlp.Problem {
	n := m.Space.Len()
	p := &binlp.Problem{N: n, Cost: make([]float64, n)}
	for i, e := range m.Entries {
		p.Cost[i] = w.W1*e.Rho + w.W2*float64(e.Lambda+e.Beta) + w.W3*e.Epsilon
	}

	// Group constraints in Group-value order: map iteration would vary
	// the constraint order per solve, and with it the solver's branch
	// order and node count — the same problem must always produce the
	// same solve, byte for byte.
	groups := groupIndices(m.Space)
	keys := make([]config.Group, 0, len(groups))
	for g := range groups {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, g := range keys {
		if members := groups[g]; len(members) > 1 {
			p.Groups = append(p.Groups, members)
		}
	}

	byName := func(name string) (int, bool) {
		for i, v := range m.Space.Vars() {
			if v.Name == name {
				return i, true
			}
		}
		return 0, false
	}

	// LEON validity couplings (paper Section 4.2): LRR only with exactly
	// 2 sets, LRU only with a multi-way cache.
	addCoupling := func(lrr, lru, sets2, sets3, sets4 string) {
		if i, ok := byName(lrr); ok {
			c := &binlp.Constraint{Name: lrr + " requires 2 sets", Bound: 0}
			c.Linear.Add(i, 1)
			if j, ok := byName(sets2); ok {
				c.Linear.Add(j, -1)
			}
			p.Constraints = append(p.Constraints, c)
		}
		if i, ok := byName(lru); ok {
			c := &binlp.Constraint{Name: lru + " requires multi-way", Bound: 0}
			c.Linear.Add(i, 1)
			for _, s := range []string{sets2, sets3, sets4} {
				if j, ok := byName(s); ok {
					c.Linear.Add(j, -1)
				}
			}
			p.Constraints = append(p.Constraints, c)
		}
	}
	addCoupling("icachreplace=LRR", "icachreplace=LRU", "icachsets=2", "icachsets=3", "icachsets=4")
	addCoupling("dcachreplace=LRR", "dcachreplace=LRU", "dcachsets=2", "dcachsets=3", "dcachsets=4")

	// Device resource constraints (Section 4.2). L and B are the percent
	// headroom left by the base configuration. The BRAM constraint uses
	// the paper's nonlinear form — cache cost = (1 + x_sets2 + 2·x_sets3
	// + 3·x_sets4) × (Σ setsize deltas) — while the LUT constraint stays
	// linear (the paper's simplification; LUT variation is minimal).
	remainingLUT := float64(100 - m.BaseResources.LUTPercent())
	remainingBRAM := float64(100 - m.BaseResources.BRAMPercent())

	lut := &binlp.Constraint{Name: "device LUTs (linear)", Bound: remainingLUT}
	for i, e := range m.Entries {
		if e.Lambda != 0 {
			lut.Linear.Add(i, float64(e.Lambda))
		}
	}
	p.Constraints = append(p.Constraints, lut)

	bram := &binlp.Constraint{Name: "device BRAM (nonlinear)", Bound: remainingBRAM}
	m.addCacheCost(bram, func(e Entry) float64 { return float64(e.Beta) })
	p.Constraints = append(p.Constraints, bram)

	return p
}

// addCacheCost fills a constraint with the paper's nonlinear cache cost
// form for the given resource delta, plus linear terms for every other
// variable.
func (m *Model) addCacheCost(c *binlp.Constraint, delta func(Entry) float64) {
	vars := m.Space.Vars()
	setsFactor := func(group config.Group) binlp.LinearForm {
		f := binlp.LinearForm{Coeffs: map[int]float64{}, Const: 1}
		for i, v := range vars {
			if v.Group != group {
				continue
			}
			// Weight: sets=2 -> +1, sets=3 -> +2, sets=4 -> +3.
			var w float64
			switch v.Name[len(v.Name)-1] {
			case '2':
				w = 1
			case '3':
				w = 2
			case '4':
				w = 3
			}
			f.Coeffs[i] = w
		}
		return f
	}
	sizeTerm := func(group config.Group) binlp.LinearForm {
		f := binlp.LinearForm{Coeffs: map[int]float64{}}
		for i, v := range vars {
			if v.Group == group {
				f.Coeffs[i] = delta(m.Entries[i])
			}
		}
		return f
	}

	iSets, iSize := setsFactor(config.GroupICacheSets), sizeTerm(config.GroupICacheSetSize)
	dSets, dSize := setsFactor(config.GroupDCacheSets), sizeTerm(config.GroupDCacheSetSize)
	if len(iSize.Coeffs) > 0 {
		c.Products = append(c.Products, binlp.ProductTerm{A: iSets, B: iSize})
	}
	if len(dSize.Coeffs) > 0 {
		c.Products = append(c.Products, binlp.ProductTerm{A: dSets, B: dSize})
	}

	for i, v := range vars {
		switch v.Group {
		case config.GroupICacheSetSize, config.GroupDCacheSetSize:
			// Covered by the product terms.
		default:
			if d := delta(m.Entries[i]); d != 0 {
				c.Linear.Add(i, d)
			}
		}
	}
}

// Prediction is the optimizer's cost approximation for a selection — the
// paper's "Cost approximations by the optimizer" rows, in both the linear
// and nonlinear variants it compares.
type Prediction struct {
	// RuntimeCycles is the predicted runtime (base × (1 + Σρᵢ/100)).
	RuntimeCycles float64 `json:"runtime_cycles"`
	// RuntimePct is the predicted runtime delta in percent.
	RuntimePct float64 `json:"runtime_pct"`
	// LUTPctLinear / BRAMPctLinear sum the per-variable deltas.
	LUTPctLinear  int `json:"lut_pct_linear"`
	BRAMPctLinear int `json:"bram_pct_linear"`
	// LUTPctNonlinear / BRAMPctNonlinear use the sets×setsize product
	// form for the cache terms.
	LUTPctNonlinear  int `json:"lut_pct_nonlinear"`
	BRAMPctNonlinear int `json:"bram_pct_nonlinear"`
	// EnergyPct is the predicted energy delta in percent (Σ εᵢ).
	EnergyPct float64 `json:"energy_pct"`
}

// Predict computes the model's cost approximation for a selection vector
// (in space order).
func (m *Model) Predict(sel []bool) Prediction {
	var rho, eps float64
	var lutLin, bramLin int
	for i, on := range sel {
		if !on {
			continue
		}
		rho += m.Entries[i].Rho
		eps += m.Entries[i].Epsilon
		lutLin += m.Entries[i].Lambda
		bramLin += m.Entries[i].Beta
	}

	nonlinear := func(delta func(Entry) float64) float64 {
		c := &binlp.Constraint{}
		m.addCacheCost(c, delta)
		return c.Eval(sel)
	}
	lutNl := nonlinear(func(e Entry) float64 { return float64(e.Lambda) })
	bramNl := nonlinear(func(e Entry) float64 { return float64(e.Beta) })

	return Prediction{
		RuntimeCycles:    float64(m.BaseCycles) * (1 + rho/100),
		RuntimePct:       rho,
		LUTPctLinear:     m.BaseResources.LUTPercent() + lutLin,
		BRAMPctLinear:    m.BaseResources.BRAMPercent() + bramLin,
		LUTPctNonlinear:  m.BaseResources.LUTPercent() + int(lutNl),
		BRAMPctNonlinear: m.BaseResources.BRAMPercent() + int(bramNl),
		EnergyPct:        eps,
	}
}

// EntryByName finds a model entry by variable name.
func (m *Model) EntryByName(name string) (Entry, bool) {
	for _, e := range m.Entries {
		if e.Var.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

func (m *Model) String() string {
	return fmt.Sprintf("model %s/%s: base %d cycles, %v, %d variables",
		m.App, m.Scale, m.BaseCycles, m.BaseResources, len(m.Entries))
}
