// Package binlp solves the constrained Binary Integer Nonlinear Programs
// of the paper's Section 4: minimize a linear objective over binary
// decision variables subject to at-most-one group constraints, linear
// inequality constraints, and nonlinear constraints built from products of
// linear forms (the paper's cache sets x set-size resource terms).
//
// The solver is an exact branch-and-bound: it branches over groups,
// bounds the objective with per-group minima, and prunes infeasible
// subtrees with interval lower bounds on every constraint. It replaces the
// commercial Tomlab/MINLP solver the paper used; on the paper's 52-variable
// instances it proves optimality in tens of microseconds.
//
// # Incremental bounds
//
// Groups are branched in one fixed order, so at a node of depth gi the
// decided variables are exactly those of groups 0..gi-1: the
// prefix-decided invariant. A form's interval over every completion of
// the node is therefore the sum of two parts, neither of which needs a
// scan of the form's terms:
//
//   - the undecided part depends on the depth alone. Before the search,
//     suffix tables record for every depth and form Const + Σ min(c,0)
//     and Const + Σ max(c,0) over the terms of groups gi..end;
//   - the decided part is the sum of the selected variables'
//     coefficients. One row of these sums per depth is carried down the
//     search: a child copies its parent's row and adds the chosen
//     variable's occurrences. Nothing is ever subtracted, so nothing
//     drifts.
//
// A node thus bounds every constraint in O(constraints + products), not
// O(terms). It re-checks only the constraints with terms in the group its
// parent just decided: every other constraint's suffix entries and row
// sums equal the parent's bit for bit, and the parent's bound passed. The sums run in another order than a term-by-term scan
// would. For the problems core.Model.Formulate builds that changes no
// bit: every constraint coefficient and constant is an integer (resource
// deltas, the sets weights 1/2/3, the ±1 couplings, integer headroom), and
// integer sums of that size are exact in float64. So every prune
// decision, and with it the node count, the objective bits and the
// assignment, is that of a term-by-term scan. TestSolveMatchesRecordedSearch
// pins the search on the 40 problems of the perfbench request grid.
package binlp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// LinearForm is Const + Σ Coeffs[i]*x[i].
type LinearForm struct {
	Coeffs map[int]float64
	Const  float64
}

// term is one (variable, coefficient) pair of a compiled form.
type term struct {
	i int
	c float64
}

// terms returns the coefficients in ascending variable order. Eval and
// BruteForce sum over this order; the solver's bounds sum in branch
// order. Neither depends on map iteration order, so identical problems
// produce bit-identical floating-point sums — and therefore identical
// prunes, node counts and solutions.
func (f LinearForm) terms() []term {
	ts := make([]term, 0, len(f.Coeffs))
	for i, c := range f.Coeffs {
		ts = append(ts, term{i, c})
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a].i < ts[b].i })
	return ts
}

// NewLinearForm creates an empty linear form.
func NewLinearForm() LinearForm {
	return LinearForm{Coeffs: make(map[int]float64)}
}

// Add accumulates a coefficient for variable i.
func (f *LinearForm) Add(i int, c float64) {
	if f.Coeffs == nil {
		f.Coeffs = make(map[int]float64)
	}
	f.Coeffs[i] += c
}

// Eval computes the form on a complete assignment, summing in ascending
// variable order for reproducibility.
func (f LinearForm) Eval(x []bool) float64 {
	return compileForm(f).eval(x)
}

// compiledForm is a LinearForm flattened to sorted term slices: the
// representation the solver's hot loops evaluate. Compiling once per
// Solve removes both the map-iteration nondeterminism and the per-node
// map overhead.
type compiledForm struct {
	terms []term
	konst float64
}

func compileForm(f LinearForm) compiledForm {
	return compiledForm{terms: f.terms(), konst: f.Const}
}

func (f compiledForm) eval(x []bool) float64 {
	v := f.konst
	for _, t := range f.terms {
		if x[t.i] {
			v += t.c
		}
	}
	return v
}

// ProductTerm is the nonlinear building block A(x) * B(x).
type ProductTerm struct {
	A, B LinearForm
}

// Constraint is Linear(x) + Σ ProductTerms(x) <= Bound.
type Constraint struct {
	Name     string
	Linear   LinearForm
	Products []ProductTerm
	Bound    float64
}

// Eval computes the left-hand side on a complete assignment.
func (c *Constraint) Eval(x []bool) float64 {
	return compileConstraint(c).eval(x)
}

// Satisfied reports whether the constraint holds on a complete assignment.
func (c *Constraint) Satisfied(x []bool) bool {
	return c.Eval(x) <= c.Bound+1e-9
}

// compiledConstraint is a Constraint with every form compiled.
type compiledConstraint struct {
	linear   compiledForm
	products []struct{ a, b compiledForm }
	bound    float64
}

func compileConstraint(c *Constraint) *compiledConstraint {
	cc := &compiledConstraint{
		linear: compileForm(c.Linear),
		bound:  c.Bound,
	}
	for _, p := range c.Products {
		cc.products = append(cc.products,
			struct{ a, b compiledForm }{compileForm(p.A), compileForm(p.B)})
	}
	return cc
}

func (c *compiledConstraint) eval(x []bool) float64 {
	v := c.linear.eval(x)
	for _, p := range c.products {
		v += p.a.eval(x) * p.b.eval(x)
	}
	return v
}

func (c *compiledConstraint) satisfied(x []bool) bool {
	return c.eval(x) <= c.bound+1e-9
}

// Problem is a complete BINLP instance.
type Problem struct {
	// N is the number of binary variables.
	N int
	// Cost holds the objective coefficients (minimized).
	Cost []float64
	// Groups are at-most-one sets of variable indices. Variables not in
	// any group are free binaries. A variable may appear in one group
	// only.
	Groups [][]int
	// Constraints are the linear and nonlinear inequality constraints.
	Constraints []*Constraint
}

// Validate checks structural soundness.
func (p *Problem) Validate() error {
	if len(p.Cost) != p.N {
		return fmt.Errorf("binlp: %d costs for %d variables", len(p.Cost), p.N)
	}
	seen := make([]bool, p.N)
	for gi, g := range p.Groups {
		if len(g) == 0 {
			return fmt.Errorf("binlp: group %d is empty", gi)
		}
		for _, i := range g {
			if i < 0 || i >= p.N {
				return fmt.Errorf("binlp: group %d has variable %d out of range", gi, i)
			}
			if seen[i] {
				return fmt.Errorf("binlp: variable %d appears in two groups", i)
			}
			seen[i] = true
		}
	}
	outside := func(f LinearForm) bool {
		for i := range f.Coeffs {
			if i < 0 || i >= p.N {
				return true
			}
		}
		return false
	}
	for _, c := range p.Constraints {
		bad := outside(c.Linear)
		for _, pt := range c.Products {
			bad = bad || outside(pt.A) || outside(pt.B)
		}
		if bad {
			return fmt.Errorf("binlp: constraint %q has a variable out of range", c.Name)
		}
	}
	return nil
}

// Solution is the solver's result.
type Solution struct {
	// X is the optimal assignment.
	X []bool
	// Objective is the achieved objective value.
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Proven is true when the search ran to completion (the solution is a
	// global optimum of the model), false when the node limit cut it off.
	Proven bool
}

// Options tunes the solver.
type Options struct {
	// MaxNodes caps the search (0 means the 10-million default).
	MaxNodes int
}

// solver is the branch-and-bound state: the normalised groups in branch
// order, and the suffix tables and per-depth rows of the incremental
// bounds (see the package comment).
type solver struct {
	p          *Problem
	members    []int // every variable once, grouped; cheapest first within a group
	groupStart []int // group gi is members[groupStart[gi]:groupStart[gi+1]]
	formStart  []int // constraint ci owns forms formStart[ci]..formStart[ci+1]-1
	occStart   []int // variable i occurs as occ[occStart[i]:occStart[i+1]]
	checks     []int // depth gi re-checks constraints checks[checkStart[gi]:checkStart[gi+1]]
	checkStart []int
	occ        []occurrence
	suffix     []float64  // suffix[gi]: objective lower bound of groups gi..end
	ext        []interval // ext[gi*nforms+f]: form f's undecided extremes at depth gi
	rows       []float64  // rows[gi*nforms+f]: selected-coefficient sum of form f
	nforms     int
	ngroups    int
	x          []bool
	nsel       int
	best       []bool
	bestObj    float64
	bestSel    int
	nodes      int
	maxNodes   int
	complete   bool
}

// interval is a closed range [lo, hi].
type interval struct{ lo, hi float64 }

// occurrence is one coefficient of a variable in one form. Forms are
// numbered constraint by constraint: the linear part first, then each
// product's A and B.
type occurrence struct {
	form int
	c    float64
}

// Solve finds a minimum-cost feasible assignment. The all-zero assignment
// must be feasible (it is for the paper's formulation — the base
// configuration); if it is not, Solve returns an error.
func Solve(p *Problem, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := newSolver(p, opts)

	// Incumbent: the all-zero assignment, where best, bestObj and bestSel
	// start. At the last depth nothing is undecided and the still-zero
	// row selects nothing, so the bound is the exact value at x = 0.
	ext, row := s.depth(s.ngroups)
	for ci, c := range p.Constraints {
		if s.lowerBound(ci, ext, row) > c.Bound+1e-9 {
			return nil, fmt.Errorf("binlp: base assignment violates constraint %q", c.Name)
		}
	}

	s.branch(0, 0)

	return &Solution{
		X:         s.best,
		Objective: s.bestObj,
		Nodes:     s.nodes,
		Proven:    s.complete,
	}, nil
}

// newSolver lays out the search tables of a validated problem: the
// normalised, ordered groups, the occurrence lists, the per-depth check
// lists, the suffix tables and the per-depth rows, each in one backing
// slice sized from the problem.
func newSolver(p *Problem, opts Options) *solver {
	s := &solver{p: p, maxNodes: opts.MaxNodes, complete: true}
	if s.maxNodes == 0 {
		s.maxNodes = 10_000_000
	}
	n := p.N
	flags := make([]bool, 2*n)
	s.best, s.x = flags[:n:n], flags[n:]

	// Normalise groups (ungrouped variables become singletons), each with
	// its objective lower bound: selecting nothing costs 0, so the bound
	// is min(0, min cost).
	type span struct {
		g       []int // nil for the singleton {i}
		i       int
		minCost float64
	}
	singletons := n
	for _, g := range p.Groups {
		singletons -= len(g)
	}
	spans := make([]span, 0, len(p.Groups)+singletons)
	inGroup := make([]bool, n)
	for _, g := range p.Groups {
		sp := span{g: g}
		for _, i := range g {
			if p.Cost[i] < sp.minCost {
				sp.minCost = p.Cost[i]
			}
			inGroup[i] = true
		}
		spans = append(spans, sp)
	}
	for i := 0; i < n; i++ {
		if !inGroup[i] {
			sp := span{i: i}
			if p.Cost[i] < 0 {
				sp.minCost = p.Cost[i]
			}
			spans = append(spans, sp)
		}
	}
	// Branch on promising groups first: most negative potential. The
	// sort is stable, so the order is a function of the problem alone.
	slices.SortStableFunc(spans, func(a, b span) int { return cmp.Compare(a.minCost, b.minCost) })
	s.ngroups = len(spans)

	nc := len(p.Constraints)
	ints := make([]int, n+(s.ngroups+1)+(nc+1)+(n+1)+(s.ngroups+2))
	s.members, ints = ints[:n:n], ints[n:]
	s.groupStart, ints = ints[:s.ngroups+1:s.ngroups+1], ints[s.ngroups+1:]
	s.formStart, ints = ints[:nc+1:nc+1], ints[nc+1:]
	s.occStart, s.checkStart = ints[:n+1:n+1], ints[n+1:]

	// Members, cheapest first within each group (stable, so equal costs
	// keep the problem's order): the order children are tried in.
	k := 0
	for gi, sp := range spans {
		s.groupStart[gi] = k
		if sp.g == nil {
			s.members[k] = sp.i
			k++
			continue
		}
		grp := s.members[k : k+len(sp.g)]
		copy(grp, sp.g)
		slices.SortStableFunc(grp, func(a, b int) int { return cmp.Compare(p.Cost[a], p.Cost[b]) })
		k += len(grp)
	}
	s.groupStart[s.ngroups] = k

	// Number the forms and count every variable's occurrences.
	nf := 0
	for ci, c := range p.Constraints {
		s.formStart[ci] = nf
		nf += 1 + 2*len(c.Products)
	}
	s.formStart[nc] = nf
	s.nforms = nf
	s.eachForm(func(_ int, lf *LinearForm) {
		for i := range lf.Coeffs {
			s.occStart[i+1]++
		}
	})
	for i := 0; i < n; i++ {
		s.occStart[i+1] += s.occStart[i]
	}
	// Fill the lists form by form, so each variable's list is in form
	// order whatever the coefficient maps' iteration order. occStart[i]
	// serves as variable i's fill cursor and ends at i+1's start, so one
	// shift restores the starts.
	s.occ = make([]occurrence, s.occStart[n])
	s.eachForm(func(f int, lf *LinearForm) {
		for i, c := range lf.Coeffs {
			s.occ[s.occStart[i]] = occurrence{form: f, c: c}
			s.occStart[i]++
		}
	})
	copy(s.occStart[1:], s.occStart[:n])
	s.occStart[0] = 0

	// The constraints each depth re-checks. The root checks them all. A
	// child at depth gi+1 differs from its parent only in the forms with
	// terms of group gi: every other form keeps its parent's suffix entry
	// and row sum bit for bit, so a constraint without such forms keeps
	// the bound that already passed at the parent.
	s.checks = make([]int, 0, nc+len(s.occ))
	for ci := range nc {
		s.checks = append(s.checks, ci)
	}
	s.checkStart[1] = nc
	for gi := range s.ngroups {
		from := len(s.checks)
		for _, i := range s.members[s.groupStart[gi]:s.groupStart[gi+1]] {
			for _, o := range s.occ[s.occStart[i]:s.occStart[i+1]] {
				ci := s.constraintOf(o.form)
				if !slices.Contains(s.checks[from:], ci) {
					s.checks = append(s.checks, ci)
				}
			}
		}
		s.checkStart[gi+2] = len(s.checks)
	}

	// The suffix tables, and one float arena for the objective suffix and
	// the per-depth rows (all zero: the root selects nothing).
	depths := s.ngroups + 1
	s.ext = make([]interval, depths*nf)
	floats := make([]float64, depths+depths*nf)
	s.suffix, s.rows = floats[:depths:depths], floats[depths:]
	last := s.ext[s.ngroups*nf:]
	s.eachForm(func(f int, lf *LinearForm) {
		last[f] = interval{lf.Const, lf.Const}
	})
	for gi := s.ngroups - 1; gi >= 0; gi-- {
		s.suffix[gi] = s.suffix[gi+1] + spans[gi].minCost
		ext := s.ext[gi*nf : (gi+1)*nf]
		copy(ext, s.ext[(gi+1)*nf:(gi+2)*nf])
		for _, i := range s.members[s.groupStart[gi]:s.groupStart[gi+1]] {
			for _, o := range s.occ[s.occStart[i]:s.occStart[i+1]] {
				if o.c < 0 {
					ext[o.form].lo += o.c
				} else {
					ext[o.form].hi += o.c
				}
			}
		}
	}
	return s
}

// eachForm visits every form of every constraint with its number.
func (s *solver) eachForm(visit func(f int, lf *LinearForm)) {
	for ci, c := range s.p.Constraints {
		f := s.formStart[ci]
		visit(f, &c.Linear)
		for k := range c.Products {
			visit(f+1+2*k, &c.Products[k].A)
			visit(f+2+2*k, &c.Products[k].B)
		}
	}
}

// constraintOf returns the constraint that owns form f.
func (s *solver) constraintOf(f int) int {
	ci, _ := slices.BinarySearch(s.formStart, f+1)
	return ci - 1
}

// depth returns the suffix-table slice and the selected-sum row of
// depth gi.
func (s *solver) depth(gi int) ([]interval, []float64) {
	return s.ext[gi*s.nforms : (gi+1)*s.nforms], s.rows[gi*s.nforms : (gi+1)*s.nforms]
}

// lowerBound is a valid lower bound of constraint ci's left-hand side
// over every completion of a node, given its depth's suffix-table slice
// and selected-sum row: interval arithmetic on the linear part and on
// each product term.
func (s *solver) lowerBound(ci int, ext []interval, row []float64) float64 {
	f, end := s.formStart[ci], s.formStart[ci+1]
	v := ext[f].lo + row[f]
	for f++; f < end; f += 2 {
		alo, ahi := ext[f].lo+row[f], ext[f].hi+row[f]
		blo, bhi := ext[f+1].lo+row[f+1], ext[f+1].hi+row[f+1]
		m := alo * blo
		if t := alo * bhi; t < m {
			m = t
		}
		if t := ahi * blo; t < m {
			m = t
		}
		if t := ahi * bhi; t < m {
			m = t
		}
		v += m
	}
	return v
}

func (s *solver) branch(gi int, partial float64) {
	if s.nodes >= s.maxNodes {
		s.complete = false
		return
	}
	s.nodes++

	// Objective bound (epsilon-relaxed so equal-objective assignments
	// with fewer selections are still reachable for the tie-break).
	if partial+s.suffix[gi] > s.bestObj+1e-12 {
		return
	}
	// Feasibility bounds.
	ext, row := s.depth(gi)
	for _, ci := range s.checks[s.checkStart[gi]:s.checkStart[gi+1]] {
		if s.lowerBound(ci, ext, row) > s.p.Constraints[ci].Bound+1e-9 {
			return
		}
	}
	if gi == s.ngroups {
		// Complete assignment; constraints were bounded above with all
		// variables decided, so it is feasible. Ties prefer fewer
		// selections (stay closer to the base configuration).
		better := partial < s.bestObj-1e-12 ||
			(partial < s.bestObj+1e-12 && s.nsel < s.bestSel)
		if better {
			s.bestObj = partial
			s.bestSel = s.nsel
			copy(s.best, s.x)
		}
		return
	}

	_, next := s.depth(gi + 1)
	// Try each member, cheapest first for better incumbents.
	for _, i := range s.members[s.groupStart[gi]:s.groupStart[gi+1]] {
		copy(next, row)
		for _, o := range s.occ[s.occStart[i]:s.occStart[i+1]] {
			next[o.form] += o.c
		}
		s.x[i] = true
		s.nsel++
		s.branch(gi+1, partial+s.p.Cost[i])
		s.nsel--
		s.x[i] = false
	}
	// The "select nothing" branch.
	copy(next, row)
	s.branch(gi+1, partial)
}

// BruteForce enumerates every feasible assignment (for testing the solver
// on small instances). It returns the optimum and the number of complete
// assignments examined.
func BruteForce(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inGroup := make([]bool, p.N)
	var groups [][]int
	for _, g := range p.Groups {
		groups = append(groups, g)
		for _, i := range g {
			inGroup[i] = true
		}
	}
	for i := 0; i < p.N; i++ {
		if !inGroup[i] {
			groups = append(groups, []int{i})
		}
	}
	var cons []*compiledConstraint
	for _, c := range p.Constraints {
		cons = append(cons, compileConstraint(c))
	}
	x := make([]bool, p.N)
	best := make([]bool, p.N)
	bestObj := math.Inf(1)
	count := 0
	var rec func(gi int, obj float64)
	rec = func(gi int, obj float64) {
		if gi == len(groups) {
			count++
			for _, c := range cons {
				if !c.satisfied(x) {
					return
				}
			}
			if obj < bestObj {
				bestObj = obj
				copy(best, x)
			}
			return
		}
		rec(gi+1, obj) // none selected
		for _, i := range groups[gi] {
			x[i] = true
			rec(gi+1, obj+p.Cost[i])
			x[i] = false
		}
	}
	rec(0, 0)
	if math.IsInf(bestObj, 1) {
		return nil, fmt.Errorf("binlp: no feasible assignment")
	}
	return &Solution{X: best, Objective: bestObj, Nodes: count, Proven: true}, nil
}
