package binlp

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

func linear(coeffs map[int]float64, bound float64, name string) *Constraint {
	return &Constraint{Name: name, Linear: LinearForm{Coeffs: coeffs}, Bound: bound}
}

func TestUnconstrainedPicksAllNegatives(t *testing.T) {
	p := &Problem{
		N:    4,
		Cost: []float64{-3, 2, -1, 0},
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false}
	for i, w := range want {
		if sol.X[i] != w {
			t.Errorf("x[%d] = %t, want %t", i, sol.X[i], w)
		}
	}
	if sol.Objective != -4 {
		t.Errorf("objective = %f, want -4", sol.Objective)
	}
	if !sol.Proven {
		t.Error("tiny problem should be proven optimal")
	}
}

func TestGroupAtMostOne(t *testing.T) {
	p := &Problem{
		N:      3,
		Cost:   []float64{-1, -5, -3},
		Groups: [][]int{{0, 1, 2}},
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.X[1] || sol.X[0] || sol.X[2] {
		t.Errorf("should pick only the cheapest group member: %v", sol.X)
	}
	if sol.Objective != -5 {
		t.Errorf("objective = %f", sol.Objective)
	}
}

func TestGroupPrefersNoneWhenAllPositive(t *testing.T) {
	p := &Problem{
		N:      2,
		Cost:   []float64{2, 3},
		Groups: [][]int{{0, 1}},
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] || sol.X[1] {
		t.Errorf("all-positive group should select nothing: %v", sol.X)
	}
	if sol.Objective != 0 {
		t.Errorf("objective = %f", sol.Objective)
	}
}

func TestLinearConstraintKnapsack(t *testing.T) {
	// Pick at most 10 units of weight; items (value, weight):
	// x0 (-6, 7), x1 (-5, 5), x2 (-4, 5), x3 (-1, 1).
	p := &Problem{
		N:    4,
		Cost: []float64{-6, -5, -4, -1},
		Constraints: []*Constraint{
			linear(map[int]float64{0: 7, 1: 5, 2: 5, 3: 1}, 10, "weight"),
		},
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Optimum: x1+x2 (value 9, weight 10) beats x0+x3 (7, 8).
	if !sol.X[1] || !sol.X[2] || sol.X[0] {
		t.Errorf("x = %v", sol.X)
	}
	if sol.Objective != -9 {
		t.Errorf("objective = %f, want -9", sol.Objective)
	}
}

func TestCouplingConstraint(t *testing.T) {
	// x0 is attractive but requires x1 (x0 - x1 <= 0), and x1 is costly
	// enough to flip the decision.
	p := &Problem{
		N:    2,
		Cost: []float64{-2, 3},
		Constraints: []*Constraint{
			linear(map[int]float64{0: 1, 1: -1}, 0, "requires"),
		},
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] || sol.X[1] {
		t.Errorf("selecting x0 costs net +1; expected empty, got %v", sol.X)
	}

	// Make x0 worth it.
	p.Cost = []float64{-5, 3}
	sol, err = Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.X[0] || !sol.X[1] {
		t.Errorf("x0 now worth its dependency: %v", sol.X)
	}
}

func TestNonlinearProductConstraint(t *testing.T) {
	// The paper's cache form: (1 + x0) * (4 + 8*x1) <= 9.
	// x1 alone: 1*12 = 12 > 9 infeasible. x0 alone: 2*4 = 8 ok.
	a := LinearForm{Coeffs: map[int]float64{0: 1}, Const: 1}
	b := LinearForm{Coeffs: map[int]float64{1: 8}, Const: 4}
	p := &Problem{
		N:    2,
		Cost: []float64{-1, -10},
		Constraints: []*Constraint{
			{Name: "bram", Products: []ProductTerm{{A: a, B: b}}, Bound: 9},
		},
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.X[0] || sol.X[1] {
		t.Errorf("x1 must be excluded by the nonlinear constraint: %v", sol.X)
	}
}

func TestInfeasibleBaseErrors(t *testing.T) {
	p := &Problem{
		N:    1,
		Cost: []float64{-1},
		Constraints: []*Constraint{
			{Name: "broken", Linear: LinearForm{Const: 5}, Bound: 0},
		},
	}
	if _, err := Solve(p, Options{}); err == nil {
		t.Error("infeasible base assignment should error")
	}
}

func TestValidation(t *testing.T) {
	bad := []*Problem{
		{N: 2, Cost: []float64{1}},
		{N: 2, Cost: []float64{1, 2}, Groups: [][]int{{}}},
		{N: 2, Cost: []float64{1, 2}, Groups: [][]int{{0, 5}}},
		{N: 2, Cost: []float64{1, 2}, Groups: [][]int{{0}, {0}}},
		{N: 2, Cost: []float64{1, 2}, Constraints: []*Constraint{linear(map[int]float64{2: 1}, 1, "past N")}},
		{N: 2, Cost: []float64{1, 2}, Constraints: []*Constraint{{
			Name: "negative", Products: []ProductTerm{{B: LinearForm{Coeffs: map[int]float64{-1: 1}}}}, Bound: 1,
		}}},
	}
	for i, p := range bad {
		if _, err := Solve(p, Options{}); err == nil {
			t.Errorf("problem %d should fail validation", i)
		}
		// A compiled constraint is range-checked from its compiled forms.
		for _, c := range p.Constraints {
			c.Compile()
		}
		if _, err := Solve(p, Options{}); err == nil {
			t.Errorf("problem %d should fail validation with its constraints compiled", i)
		}
	}
}

// TestCompiledConstraintCopiesOwnTheirBounds: copies of a compiled
// constraint share its compiled left-hand side but each keeps its own
// Name and Bound, and a compiled constraint solves exactly like the
// uncompiled original.
func TestCompiledConstraintCopiesOwnTheirBounds(t *testing.T) {
	proto := &Constraint{Name: "budget", Bound: 5}
	for i, c := range []float64{3, 2, 4, 1} {
		proto.Linear.Add(i, c)
	}
	proto.Products = []ProductTerm{{
		A: LinearForm{Coeffs: map[int]float64{0: 1, 1: 2}, Const: 1},
		B: LinearForm{Coeffs: map[int]float64{2: 1, 3: 2}},
	}}
	problem := func(c *Constraint) *Problem {
		return &Problem{N: 4, Cost: []float64{-4, -3, -2, -1}, Constraints: []*Constraint{c}}
	}
	uncompiled := *proto
	want, err := Solve(problem(&uncompiled), Options{})
	if err != nil {
		t.Fatal(err)
	}

	proto.Compile()
	tight := *proto
	tight.Name, tight.Bound = "tight budget", 0
	loose := *proto
	for _, c := range []*Constraint{&tight, &loose} {
		if c.lhs != proto.lhs {
			t.Fatalf("%s: a copy must share the compiled left-hand side", c.Name)
		}
	}
	if proto.Name != "budget" || proto.Bound != 5 || loose.Bound != 5 {
		t.Fatalf("editing a copy changed another header: %+v / %+v", proto, loose)
	}

	got, err := Solve(problem(&loose), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != want.Nodes || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || !slices.Equal(got.X, want.X) {
		t.Errorf("compiled solve %+v, uncompiled %+v", got, want)
	}
	zero, err := Solve(problem(&tight), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Objective != 0 || slices.Contains(zero.X, true) {
		t.Errorf("bound 0 admits only the base assignment, got %+v", zero)
	}
	x := []bool{true, false, true, true}
	if a, b := loose.Eval(x), uncompiled.Eval(x); a != b {
		t.Errorf("compiled Eval %g, uncompiled %g", a, b)
	}
}

func TestNodeLimitReportsUnproven(t *testing.T) {
	p := &Problem{N: 30, Cost: make([]float64, 30)}
	for i := range p.Cost {
		p.Cost[i] = -1
	}
	// A constraint that keeps the solver from proving instantly.
	coeffs := map[int]float64{}
	for i := 0; i < 30; i++ {
		coeffs[i] = 1
	}
	p.Constraints = []*Constraint{linear(coeffs, 15, "cap")}
	sol, err := Solve(p, Options{MaxNodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Proven {
		t.Error("10-node budget cannot prove a 30-variable problem")
	}
}

// randomProblem draws one instance of the property tests' family: 6–10
// variables, one or two groups, a linear budget over everything and a
// product constraint whose second factor mixes signs. Every coefficient
// is a half-integer, and the all-zero assignment is feasible by
// construction (non-negative budget, product at x=0 is 1·Const <= bound).
func randomProblem(r *rand.Rand) *Problem {
	n := 6 + r.Intn(5)
	p := &Problem{N: n, Cost: make([]float64, n)}
	for i := range p.Cost {
		p.Cost[i] = math.Round(r.Float64()*20-12) / 2
	}
	// One or two groups.
	i := 0
	for g := 0; g < 1+r.Intn(2) && i+2 <= n; g++ {
		size := 2 + r.Intn(2)
		if i+size > n {
			size = n - i
		}
		var grp []int
		for k := 0; k < size; k++ {
			grp = append(grp, i)
			i++
		}
		p.Groups = append(p.Groups, grp)
	}
	// A linear budget over everything.
	coeffs := map[int]float64{}
	for v := 0; v < n; v++ {
		coeffs[v] = math.Round(r.Float64() * 6)
	}
	p.Constraints = append(p.Constraints, linear(coeffs, float64(2+r.Intn(8)), "budget"))
	// A product constraint over two slices of variables, with mixed
	// signs in the second factor.
	a := LinearForm{Coeffs: map[int]float64{}, Const: 1}
	b := LinearForm{Coeffs: map[int]float64{}, Const: float64(r.Intn(3))}
	for v := 0; v < n/2; v++ {
		a.Coeffs[v] = float64(r.Intn(3))
	}
	for v := n / 2; v < n; v++ {
		b.Coeffs[v] = math.Round(r.Float64()*8 - 3)
	}
	p.Constraints = append(p.Constraints, &Constraint{
		Name: "prod", Products: []ProductTerm{{A: a, B: b}}, Bound: float64(3 + r.Intn(10)),
	})
	return p
}

// solveMatchesBruteForce checks the solver's core property on p: Solve
// fails exactly when exhaustive enumeration does, and otherwise returns a
// proven optimum whose objective matches enumeration's, and whose
// assignment is feasible and achieves the reported objective. It returns
// the solution (nil when both failed) or the first violation.
func solveMatchesBruteForce(p *Problem) (*Solution, error) {
	got, err := Solve(p, Options{})
	want, bfErr := BruteForce(p)
	if (err != nil) != (bfErr != nil) {
		return nil, fmt.Errorf("solve error %v, brute force error %v\nproblem: %+v", err, bfErr, p)
	}
	if err != nil {
		return nil, nil
	}
	if math.Abs(got.Objective-want.Objective) > 1e-9 {
		return nil, fmt.Errorf("solver %f != brute force %f\nproblem: %+v", got.Objective, want.Objective, p)
	}
	if !got.Proven {
		return nil, fmt.Errorf("small instance should be proven")
	}
	obj := 0.0
	for i, on := range got.X {
		if on {
			obj += p.Cost[i]
		}
	}
	if math.Abs(obj-got.Objective) > 1e-9 {
		return nil, fmt.Errorf("reported objective %f but assignment costs %f", got.Objective, obj)
	}
	for _, c := range p.Constraints {
		if !c.Satisfied(got.X) {
			return nil, fmt.Errorf("returned assignment violates %q", c.Name)
		}
	}
	return got, nil
}

// TestSolverMatchesBruteForce is the core property test: on random small
// instances, branch-and-bound and exhaustive enumeration agree on the
// optimal objective.
func TestSolverMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2006))
	for trial := 0; trial < 300; trial++ {
		sol, err := solveMatchesBruteForce(randomProblem(r))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol == nil {
			t.Fatalf("trial %d: the base assignment is feasible, yet both failed", trial)
		}
	}
}

// fuzzProblem decodes fuzz bytes into a problem of randomProblem's shape,
// widened: 1–10 variables, up to two contiguous groups, a linear budget
// and a product constraint whose two factors split the variables at a
// decoded point. Every coefficient and constant is a signed byte halved,
// so both factors mix signs. The budget's bound is non-negative and the
// product's bound is at least A.Const·B.Const, so the all-zero assignment
// stays feasible. Missing bytes read as zero.
func fuzzProblem(data []byte) *Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	half := func() float64 { return float64(int8(next())) / 2 }

	n := 1 + int(next())%10
	p := &Problem{N: n, Cost: make([]float64, n)}
	for i := range p.Cost {
		p.Cost[i] = half()
	}
	ngroups := int(next()) % 3
	for g, i := 0, 0; g < ngroups && i+2 <= n; g++ {
		grp := make([]int, min(2+int(next())%2, n-i))
		for k := range grp {
			grp[k] = i
			i++
		}
		p.Groups = append(p.Groups, grp)
	}
	budget := linear(map[int]float64{}, float64(next())/2, "budget")
	for v := 0; v < n; v++ {
		budget.Linear.Coeffs[v] = half()
	}
	split := int(next()) % (n + 1)
	a := LinearForm{Coeffs: map[int]float64{}, Const: half()}
	b := LinearForm{Coeffs: map[int]float64{}, Const: half()}
	for v := 0; v < split; v++ {
		a.Coeffs[v] = half()
	}
	for v := split; v < n; v++ {
		b.Coeffs[v] = half()
	}
	p.Constraints = []*Constraint{budget, {
		Name: "prod", Products: []ProductTerm{{A: a, B: b}}, Bound: a.Const*b.Const + float64(next())/2,
	}}
	return p
}

// encodeProblem is fuzzProblem's inverse on randomProblem's family: the
// bytes it returns decode to p.
func encodeProblem(p *Problem) []byte {
	half := func(v float64) byte { return byte(int8(v * 2)) }
	budget, prod := p.Constraints[0], p.Constraints[1]
	a, b := prod.Products[0].A, prod.Products[0].B
	data := []byte{byte(p.N - 1)}
	for _, c := range p.Cost {
		data = append(data, half(c))
	}
	data = append(data, byte(len(p.Groups)))
	for _, g := range p.Groups {
		data = append(data, byte(len(g)-2))
	}
	data = append(data, byte(budget.Bound*2))
	for v := 0; v < p.N; v++ {
		data = append(data, half(budget.Linear.Coeffs[v]))
	}
	data = append(data, byte(len(a.Coeffs)), half(a.Const), half(b.Const))
	for v := 0; v < p.N; v++ {
		if c, ok := a.Coeffs[v]; ok {
			data = append(data, half(c))
		} else {
			data = append(data, half(b.Coeffs[v]))
		}
	}
	return append(data, byte((prod.Bound-a.Const*b.Const)*2))
}

// FuzzSolveMatchesBruteForce checks the solver's core property on
// decoded problems; the seed corpus is randomProblem's first instances.
func FuzzSolveMatchesBruteForce(f *testing.F) {
	r := rand.New(rand.NewSource(2006))
	for k := 0; k < 32; k++ {
		p := randomProblem(r)
		data := encodeProblem(p)
		if got := fuzzProblem(data); !reflect.DeepEqual(got, p) {
			f.Fatalf("seed %d does not decode to its problem:\n got %+v\nwant %+v", k, got, p)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := solveMatchesBruteForce(fuzzProblem(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSolveByteReproducible locks the determinism contract: the same
// problem, with its coefficient maps populated in different insertion
// orders (and therefore different map iteration orders), must explore the
// same number of nodes and produce bit-identical objectives. This is what
// lets the autoarch -json golden test compare solver_nodes byte for byte.
func TestSolveByteReproducible(t *testing.T) {
	build := func(perm []int) *Problem {
		n := 10
		p := &Problem{
			N:      n,
			Cost:   []float64{-3.5, 1, -2, 0.5, -1.5, 2, -0.25, 4, -5, 0.75},
			Groups: [][]int{{0, 1, 2}, {3, 4}},
		}
		budget := &Constraint{Name: "budget", Bound: 7}
		for _, v := range perm {
			budget.Linear.Add(v, float64((v*7)%5)+0.1)
		}
		a := NewLinearForm()
		b := LinearForm{Const: 1}
		for _, v := range perm {
			if v < n/2 {
				a.Add(v, float64(v%3))
			} else {
				b.Add(v, float64(v%4)-1.5)
			}
		}
		p.Constraints = append(p.Constraints, budget,
			&Constraint{Name: "prod", Products: []ProductTerm{{A: a, B: b}}, Bound: 6})
		return p
	}

	perms := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		{4, 0, 9, 2, 7, 5, 1, 8, 3, 6},
	}
	var ref *Solution
	for pi, perm := range perms {
		for rep := 0; rep < 5; rep++ {
			sol, err := Solve(build(perm), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = sol
				continue
			}
			if sol.Nodes != ref.Nodes {
				t.Errorf("perm %d rep %d: %d nodes, want %d", pi, rep, sol.Nodes, ref.Nodes)
			}
			if math.Float64bits(sol.Objective) != math.Float64bits(ref.Objective) {
				t.Errorf("perm %d rep %d: objective %x, want %x",
					pi, rep, math.Float64bits(sol.Objective), math.Float64bits(ref.Objective))
			}
			for i := range sol.X {
				if sol.X[i] != ref.X[i] {
					t.Errorf("perm %d rep %d: assignment differs at %d", pi, rep, i)
					break
				}
			}
		}
	}
}

func TestConstraintEvalAndBounds(t *testing.T) {
	a := LinearForm{Coeffs: map[int]float64{0: 2, 1: -1}, Const: 1}
	b := LinearForm{Coeffs: map[int]float64{2: 3}, Const: 2}
	c := &Constraint{
		Linear:   LinearForm{Coeffs: map[int]float64{0: 1}},
		Products: []ProductTerm{{A: a, B: b}},
		Bound:    100,
	}
	x := []bool{true, false, true}
	// 1*1 + (1+2)*(2+3) = 1 + 15 = 16.
	if got := c.Eval(x); got != 16 {
		t.Errorf("Eval = %f, want 16", got)
	}

	// At the root nothing is decided, so the bound must not exceed any
	// achievable value. The product-interval rule takes the minimum over
	// all four corners of A × B; each case below puts the minimum on a
	// different corner, so dropping any corner breaks one.
	form := func(konst float64, coeffs map[int]float64) LinearForm {
		return LinearForm{Coeffs: coeffs, Const: konst}
	}
	cases := []struct {
		name string
		c    *Constraint
		want float64
	}{
		// x0 ∈ [0,1], A ∈ [0,3], B ∈ [2,5]: 0 + min(0·2, 0·5, 3·2, 3·5).
		{"lo·lo", c, 0},
		// A ∈ [-1,2], B ∈ [-2,2]: min(2, -2, -4, 4).
		{"hi·lo", &Constraint{Products: []ProductTerm{{
			A: form(-1, map[int]float64{0: 3}), B: form(-2, map[int]float64{1: 4}),
		}}}, -4},
		// A ∈ [-2,1], B ∈ [-1,2]: min(2, -4, -1, 2).
		{"lo·hi", &Constraint{Products: []ProductTerm{{
			A: form(1, map[int]float64{0: -3}), B: form(-1, map[int]float64{1: 3}),
		}}}, -4},
		// A ∈ [-2,-1], B ∈ [-3,-2], plus x2 - 1 ∈ [-1,0]: -1 + min(6, 4, 3, 2).
		{"hi·hi", &Constraint{
			Linear: form(-1, map[int]float64{2: 1}),
			Products: []ProductTerm{{
				A: form(-2, map[int]float64{0: 1}), B: form(-3, map[int]float64{1: 1}),
			}},
		}, 1},
	}
	for _, tc := range cases {
		p := &Problem{N: 3, Cost: make([]float64, 3), Constraints: []*Constraint{tc.c}}
		lhs, err := p.compile()
		if err != nil {
			t.Fatal(err)
		}
		s := newSolver(p, lhs, Options{})
		ext, row := s.depth(0)
		lb := s.lowerBound(0, ext, row)
		if lb != tc.want {
			t.Errorf("%s: root lower bound = %f, want %f", tc.name, lb, tc.want)
		}
		for mask := 0; mask < 8; mask++ {
			y := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
			if v := tc.c.Eval(y); lb > v+1e-9 {
				t.Errorf("%s: lower bound %f exceeds achievable %f at %v", tc.name, lb, v, y)
			}
		}
	}
}

func TestBruteForceInfeasible(t *testing.T) {
	p := &Problem{
		N:    1,
		Cost: []float64{-1},
		Constraints: []*Constraint{
			{Name: "broken", Linear: LinearForm{Const: 5}, Bound: 0},
		},
	}
	if _, err := BruteForce(p); err == nil {
		t.Error("infeasible problem should error in brute force")
	}
}

// recordedSearch is one entry of testdata/recorded_search.json (written by
// testdata/record.go): a problem the perfbench request grid formulates,
// with the search the solver ran on it.
type recordedSearch struct {
	Name          string   `json:"name"`
	Problem       *Problem `json:"problem"`
	Nodes         int      `json:"nodes"`
	ObjectiveBits uint64   `json:"objective_bits"`
	X             []bool   `json:"x"`
}

func loadRecordedSearches(tb testing.TB) []recordedSearch {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "recorded_search.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var recs []recordedSearch
	if err := json.Unmarshal(data, &recs); err != nil {
		tb.Fatal(err)
	}
	return recs
}

// TestSolveMatchesRecordedSearch pins the search itself, not just its
// optimum: on the 40 problems of the perfbench grid (5 programs × 8
// weightings, Small scale, the full 52-variable space) the solver must
// explore exactly the recorded number of nodes and return the recorded
// objective bits and assignment. A bound that prunes differently — even
// to the same optimum — fails here. Each problem is solved twice: as
// decoded, and with every constraint compiled, the way
// core.Model.Formulate hands them out.
func TestSolveMatchesRecordedSearch(t *testing.T) {
	recs := loadRecordedSearches(t)
	if len(recs) != 40 {
		t.Fatalf("%d recorded problems, want 40", len(recs))
	}
	for i := range 2 * len(recs) {
		r := recs[i%len(recs)]
		if i >= len(recs) {
			r.Name += " (compiled)"
			for _, c := range r.Problem.Constraints {
				c.Compile()
			}
		}
		sol, err := Solve(r.Problem, Options{})
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if sol.Nodes != r.Nodes {
			t.Errorf("%s: %d nodes, recorded %d", r.Name, sol.Nodes, r.Nodes)
		}
		if bits := math.Float64bits(sol.Objective); bits != r.ObjectiveBits {
			t.Errorf("%s: objective bits %#x, recorded %#x", r.Name, bits, r.ObjectiveBits)
		}
		if !slices.Equal(sol.X, r.X) {
			t.Errorf("%s: assignment %v, recorded %v", r.Name, sol.X, r.X)
		}
	}
}
