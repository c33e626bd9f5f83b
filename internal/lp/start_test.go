package lp

import (
	"errors"
	"math"
	"testing"
)

// spreadProblem is a one-resource placement LP: split one unit of work
// over len(a) sites, site i taking a[i] seconds per unit and at most
// cap[i] of it, minimizing the time T the slowest site ends.
//
//	row i        a_i·x_i − T ≤ 0
//	row n+i      x_i ≤ cap_i
//	row 2n       Σ x_i = 1
//
// declare, when non-nil, is called with the built problem, T and the x
// variables to declare a starting vertex.
func spreadProblem(a, cap []float64, declare func(p *Problem, T Var, x []Var)) *Problem {
	n := len(a)
	p := NewProblem()
	T := p.AddVar("T", 1)
	x := make([]Var, n)
	for i := range x {
		x[i] = p.AddVar("x", 0)
	}
	for i := range x {
		p.AddRow([]Var{x[i], T}, []float64{a[i], -1}, LE, 0)
	}
	for i := range x {
		p.AddRow([]Var{x[i]}, []float64{1}, LE, cap[i])
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	p.AddRow(x, ones, EQ, 1)
	if declare != nil {
		declare(p, T, x)
	}
	return p
}

var (
	spreadA   = []float64{3e9, 5e9, 2e9, 7e9}
	spreadCap = []float64{1, 1, 1, 1}
)

// allAt declares the vertex "everything at site k": x_k basic in the
// sum row, T in site k's time row, slacks elsewhere.
func allAt(k int) func(p *Problem, T Var, x []Var) {
	return func(p *Problem, T Var, x []Var) {
		p.DeclareBasic(k, T)
		p.DeclareBasic(2*len(x), x[k])
	}
}

// TestDeclaredStartEntersPhase2 is the rung working: the solve starts
// at the declared vertex, reaches the optimum phase 1 reaches, in fewer
// pivots, with or without a WarmStart, and is not a warm start.
func TestDeclaredStartEntersPhase2(t *testing.T) {
	ws := NewWorkspace()
	cold, err := spreadProblem(spreadA, spreadCap, nil).SolveInto(ws)
	if err != nil {
		t.Fatalf("undeclared SolveInto: %v", err)
	}
	coldPivots := ws.Pivots()
	if cold.Rung != RungPhase1 || cold.Warm {
		t.Fatalf("undeclared solve: rung %v warm %v, want phase1, false", cold.Rung, cold.Warm)
	}
	p := spreadProblem(spreadA, spreadCap, allAt(2))
	var w WarmStart
	for _, solve := range []func() (*Solution, error){
		func() (*Solution, error) { return p.SolveInto(ws) },
		func() (*Solution, error) { return p.SolveWarm(ws, &w) },
	} {
		before := ws.Pivots()
		got, err := solve()
		if err != nil {
			t.Fatalf("declared solve: %v", err)
		}
		if got.Rung != RungDeclared || got.Warm || got.PriorDeclined != DeclineNone {
			t.Fatalf("declared solve: rung %v warm %v declined %v, want declared, false, none", got.Rung, got.Warm, got.PriorDeclined)
		}
		if d := math.Abs(got.Objective - cold.Objective); d > 1e-9*math.Abs(cold.Objective) {
			t.Errorf("declared objective %v vs phase-1 %v", got.Objective, cold.Objective)
		}
		if used := ws.Pivots() - before; used >= coldPivots {
			t.Errorf("declared start took %d pivots, phase 1 took %d", used, coldPivots)
		}
	}
	// The snapshot SolveWarm took is a prior basis like any other.
	again, err := p.SolveWarm(ws, &w)
	if err != nil || !again.Warm || again.Rung != RungPrior {
		t.Fatalf("re-solve from the snapshot: %v, solution %+v", err, again)
	}
}

// TestDeclaredStartDeclines: a declaration that cannot be used costs
// time, never the answer. Each decline path must return, bit for bit,
// what SolveInto returns for the same problem with nothing declared.
func TestDeclaredStartDeclines(t *testing.T) {
	want, err := spreadProblem(spreadA, spreadCap, nil).SolveInto(NewWorkspace())
	if err != nil {
		t.Fatalf("undeclared SolveInto: %v", err)
	}
	for _, tc := range []struct {
		name    string
		declare func(p *Problem, T Var, x []Var)
		why     Decline
		dirty   bool
	}{
		// T has no coefficient in the only row left free: nothing to
		// pivot on, before any pivot ran.
		{"singular", func(p *Problem, T Var, x []Var) { p.DeclareBasic(2*len(x), T) }, DeclineSingular, false},
		// x_0 twice: the second copy finds its column already reduced
		// to a unit vector in a taken row, after pivots dirtied the
		// tableau.
		{"singular after pivots", func(p *Problem, T Var, x []Var) {
			p.DeclareBasic(0, x[0])
			p.DeclareBasic(1, T)
			p.DeclareBasic(2*len(x), x[0])
		}, DeclineSingular, true},
		// Everything at site 1 but T read off site 0's row: T = 0 and
		// site 1's time row is violated, B⁻¹b < 0.
		{"primal infeasible", func(p *Problem, T Var, x []Var) {
			p.DeclareBasic(0, T)
			p.DeclareBasic(2*len(x), x[1])
		}, DeclineInfeasible, true},
		// The sum row is an equality and has no slack to keep.
		{"equality undeclared", func(p *Problem, T Var, x []Var) { p.DeclareBasic(0, T) }, DeclineMismatch, false},
	} {
		ws := NewWorkspace()
		p := spreadProblem(spreadA, spreadCap, tc.declare)
		if err := p.prepare(ws); err != nil {
			t.Fatalf("%s: prepare: %v", tc.name, err)
		}
		if why, dirty := ws.tab.installBasis(p.declaredStart(ws)); why != tc.why || dirty != tc.dirty {
			t.Errorf("%s: install declined for %v (dirty %v), want %v (dirty %v)", tc.name, why, dirty, tc.why, tc.dirty)
		}
		got, err := p.SolveInto(ws)
		if err != nil {
			t.Fatalf("%s: SolveInto: %v", tc.name, err)
		}
		if got.Rung != RungPhase1 {
			t.Errorf("%s: rung %v, want phase1", tc.name, got.Rung)
		}
		if !sameSolution(want, got) {
			t.Errorf("%s: declined start changed the solve's bits", tc.name)
		}
	}
}

// TestDeclaredStartInDroppedRow: a declaration in a row equilibrate
// drops as empty has no tableau row to be basic in.
func TestDeclaredStartInDroppedRow(t *testing.T) {
	build := func(declare bool) *Problem {
		return spreadProblem(spreadA, spreadCap, func(p *Problem, T Var, x []Var) {
			p.AddRow([]Var{x[0]}, []float64{0}, LE, 4)
			if declare {
				allAt(2)(p, T, x)
				p.DeclareBasic(p.NumConstraints()-1, x[0])
			}
		})
	}
	want, err := build(false).SolveInto(NewWorkspace())
	if err != nil {
		t.Fatalf("undeclared: %v", err)
	}
	got, err := build(true).SolveInto(NewWorkspace())
	if err != nil {
		t.Fatalf("declared: %v", err)
	}
	if got.Rung != RungPhase1 || !sameSolution(want, got) {
		t.Errorf("rung %v, same bits %v; want phase1, true", got.Rung, sameSolution(want, got))
	}
}

// TestDeclaredStartPhase2Failure: the vertex installs and is feasible,
// but phase 2 finds an unbounded ray from it. The verdict must be the
// one phase 1 + phase 2 reach on a rebuilt tableau — the same error
// here, and for SolveWarm a reset basis.
func TestDeclaredStartPhase2Failure(t *testing.T) {
	build := func(declare bool) *Problem {
		p := NewProblem()
		x := p.AddVar("x", -1)
		y := p.AddVar("y", 0)
		p.AddRow([]Var{x, y}, []float64{1, -1}, LE, 1)
		if declare {
			p.DeclareBasic(0, x)
		}
		return p
	}
	if _, err := build(false).SolveInto(NewWorkspace()); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("undeclared: err = %v, want ErrUnbounded", err)
	}
	if _, err := build(true).SolveInto(NewWorkspace()); !errors.Is(err, ErrUnbounded) {
		t.Errorf("declared SolveInto: err = %v, want ErrUnbounded", err)
	}
	var w WarmStart
	if _, err := build(true).SolveWarm(NewWorkspace(), &w); !errors.Is(err, ErrUnbounded) || w.Valid() {
		t.Errorf("declared SolveWarm: err = %v, basis valid %v; want ErrUnbounded, false", err, w.Valid())
	}
}

// TestPriorDeclinedLandsOnDeclaredStart walks the whole ladder: a prior
// basis that the new rhs makes primal infeasible is declined with its
// reason, and the solve enters at the declared vertex, not phase 1.
func TestPriorDeclinedLandsOnDeclaredStart(t *testing.T) {
	ws := NewWorkspace()
	var w WarmStart
	if _, err := spreadProblem(spreadA, spreadCap, allAt(2)).SolveWarm(ws, &w); err != nil {
		t.Fatalf("seed solve: %v", err)
	}
	// Capping site 2 below its balanced share breaks the old vertex
	// (its cap row's slack goes negative); everything at site 0 is
	// still a vertex.
	tight := []float64{1, 1, 0.05, 1}
	got, err := spreadProblem(spreadA, tight, allAt(0)).SolveWarm(ws, &w)
	if err != nil {
		t.Fatalf("SolveWarm: %v", err)
	}
	if got.Warm || got.Rung != RungDeclared || got.PriorDeclined != DeclineInfeasible {
		t.Fatalf("warm %v rung %v declined %v, want false, declared, infeasible", got.Warm, got.Rung, got.PriorDeclined)
	}
	want, err := spreadProblem(spreadA, tight, nil).SolveInto(NewWorkspace())
	if err != nil {
		t.Fatalf("undeclared SolveInto: %v", err)
	}
	if d := math.Abs(got.Objective - want.Objective); d > 1e-9*math.Abs(want.Objective) {
		t.Errorf("objective %v vs phase-1 %v", got.Objective, want.Objective)
	}
	// A mismatched prior is told apart from an infeasible one.
	var small WarmStart
	if _, err := spreadProblem(spreadA[:2], spreadCap[:2], nil).SolveWarm(ws, &small); err != nil {
		t.Fatalf("small seed solve: %v", err)
	}
	got, err = spreadProblem(spreadA, spreadCap, nil).SolveWarm(ws, &small)
	if err != nil || got.Rung != RungPhase1 || got.PriorDeclined != DeclineMismatch {
		t.Fatalf("mismatched prior: %v, solution %+v", err, got)
	}
}

// TestDeclinedRungEquilibratesOnce: a prior basis declined after its
// install pivoted sends the solve back to a rebuilt tableau without a
// second equilibration, and the solve returns what a solve on a fresh
// workspace returns, bit for bit. A row with a negative rhs makes the
// rebuild depend on init leaving the equilibrated rows as they were.
func TestDeclinedRungEquilibratesOnce(t *testing.T) {
	minShare := func(p *Problem, T Var, x []Var) { p.AddRow([]Var{x[3]}, []float64{-1}, LE, -0.01) }
	ws := NewWorkspace()
	var w WarmStart
	if _, err := spreadProblem(spreadA, spreadCap, minShare).SolveWarm(ws, &w); err != nil {
		t.Fatalf("seed solve: %v", err)
	}
	// Site 2 held the most work; capping it breaks the old vertex.
	tight := []float64{1, 1, 0.05, 1}
	p := spreadProblem(spreadA, tight, minShare)
	probe := NewWorkspace()
	if err := p.prepare(probe); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if why, dirty := probe.tab.installBasis(&w); why != DeclineInfeasible || !dirty {
		t.Fatalf("prior install: declined %v, dirty %v; want infeasible after pivots", why, dirty)
	}
	before := ws.equilibrations
	got, err := p.SolveWarm(ws, &w)
	if err != nil {
		t.Fatalf("SolveWarm: %v", err)
	}
	if got.PriorDeclined != DeclineInfeasible || got.Rung != RungPhase1 {
		t.Fatalf("declined %v, rung %v; want infeasible, phase1", got.PriorDeclined, got.Rung)
	}
	if n := ws.equilibrations - before; n != 1 {
		t.Errorf("%d equilibrations in one solve, want 1", n)
	}
	want, err := spreadProblem(spreadA, tight, minShare).SolveInto(NewWorkspace())
	if err != nil {
		t.Fatalf("SolveInto: %v", err)
	}
	if !sameSolution(want, got) {
		t.Errorf("solution after the declined prior differs from a fresh solve's bits")
	}
}
