package lp

import (
	"math"
	"testing"
)

// sameSolution reports whether two solutions are bit-for-bit identical,
// comparing every float through math.Float64bits so that -0 vs 0 or
// differently-rounded last bits count as differences.
func sameSolution(a, b *Solution) bool {
	if a.Status != b.Status ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		math.Float64bits(a.MaxResidual) != math.Float64bits(b.MaxResidual) ||
		len(a.X) != len(b.X) || len(a.Dual) != len(b.Dual) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	for i := range a.Dual {
		if math.Float64bits(a.Dual[i]) != math.Float64bits(b.Dual[i]) {
			return false
		}
	}
	return true
}

// TestSolveDeterministic is the regression test for the map-iteration
// nondeterminism the flat-row storage fixed: solving the same problem
// repeatedly — and solving an independently built copy whose
// AddConstraint maps iterate in whatever order the runtime picks — must
// produce byte-identical solutions.
func TestSolveDeterministic(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		a := benchProblem(n, 42)
		ref, err := a.Solve()
		if err != nil {
			t.Fatalf("n=%d: Solve: %v", n, err)
		}
		for trial := 0; trial < 5; trial++ {
			got, err := a.Solve()
			if err != nil {
				t.Fatalf("n=%d trial %d: Solve: %v", n, trial, err)
			}
			if !sameSolution(ref, got) {
				t.Fatalf("n=%d trial %d: re-solving the same problem changed bits", n, trial)
			}
			// A freshly built copy exercises a new map iteration order in
			// AddConstraint.
			cp := benchProblem(n, 42)
			got, err = cp.Solve()
			if err != nil {
				t.Fatalf("n=%d trial %d: Solve(copy): %v", n, trial, err)
			}
			if !sameSolution(ref, got) {
				t.Fatalf("n=%d trial %d: rebuilt problem solved to different bits", n, trial)
			}
		}
	}
}

// TestWorkspaceReuseDifferential pushes a batch of distinct problems
// through one shared Workspace and checks each result is bit-identical
// to a solve through a brand-new workspace: buffer reuse must never
// leak state between solves.
func TestWorkspaceReuseDifferential(t *testing.T) {
	shared := NewWorkspace()
	for seed := int64(0); seed < 20; seed++ {
		n := 3 + int(seed)%10
		p := benchProblem(n, seed)
		got, err := p.SolveInto(shared)
		if err != nil {
			t.Fatalf("seed %d: SolveInto(shared): %v", seed, err)
		}
		want, err := p.SolveInto(NewWorkspace())
		if err != nil {
			t.Fatalf("seed %d: SolveInto(fresh): %v", seed, err)
		}
		if !sameSolution(want, got) {
			t.Fatalf("seed %d: shared-workspace solve differs from fresh-workspace solve", seed)
		}
	}
}

// TestSolveAllocsSteadyState guards the steady-state allocation budget:
// once the workspace buffers have grown to fit, a solve allocates only
// the Solution and its X/Dual slices — entering at a declared start
// (whose basis is workspace scratch) included, and a 50-site map LP
// whose sparse pivots gather into workspace-owned index scratch.
func TestSolveAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for name, p := range map[string]*Problem{
		"phase 1":        benchProblem(12, 5),
		"declared start": spreadProblem(spreadA, spreadCap, allAt(2)),
		"50-site map LP": mapProblem(50, 10, 1),
	} {
		ws := NewWorkspace()
		if _, err := p.SolveInto(ws); err != nil { // warm up buffers
			t.Fatalf("%s: SolveInto: %v", name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := p.SolveInto(ws); err != nil {
				t.Errorf("%s: SolveInto: %v", name, err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s: steady-state SolveInto allocates %.1f objects/op, want <= 4 (Solution + X + Dual)", name, allocs)
		}
	}
}

// TestAddRowMatchesAddConstraint checks the slice-based row builder is
// equivalent to the map-based one: unsorted input is sorted into place
// and zero coefficients are dropped.
func TestAddRowMatchesAddConstraint(t *testing.T) {
	build := func(useRow bool) *Problem {
		p := NewProblem()
		a := p.AddVar("a", 1)
		b := p.AddVar("b", 2)
		c := p.AddVar("c", 0)
		if useRow {
			p.AddRow([]Var{c, a, b}, []float64{3, 1, 0}, LE, 7)
			p.AddRow([]Var{b, c}, []float64{1, 1}, GE, 2)
		} else {
			p.AddConstraint(map[Var]float64{c: 3, a: 1, b: 0}, LE, 7)
			p.AddConstraint(map[Var]float64{b: 1, c: 1}, GE, 2)
		}
		return p
	}
	pr, pm := build(true), build(false)
	for i := 0; i < pr.NumConstraints(); i++ {
		cr, sr, rr := pr.Constraint(i)
		cm, sm, rm := pm.Constraint(i)
		if sr != sm || rr != rm || len(cr) != len(cm) {
			t.Fatalf("row %d: shape mismatch between AddRow and AddConstraint", i)
		}
		for v, cv := range cr {
			if cm[v] != cv {
				t.Fatalf("row %d var %d: coef %v vs %v", i, v, cv, cm[v])
			}
		}
	}
	sr, err1 := pr.Solve()
	sm, err2 := pm.Solve()
	if err1 != nil || err2 != nil {
		t.Fatalf("Solve: %v / %v", err1, err2)
	}
	if !sameSolution(sr, sm) {
		t.Fatal("AddRow-built problem solved differently from AddConstraint-built problem")
	}
}

func TestAddRowDuplicateVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate variable in row")
		}
	}()
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddRow([]Var{x, y, x}, []float64{1, 1, 2}, LE, 1)
}

// TestProblemPoolReuse checks Acquire/Release round-trips deliver a
// clean problem whose solves match a never-pooled one.
func TestProblemPoolReuse(t *testing.T) {
	for i := 0; i < 5; i++ {
		p := AcquireProblem()
		if p.NumVars() != 0 || p.NumConstraints() != 0 {
			t.Fatalf("iteration %d: pooled problem not reset: %d vars, %d rows", i, p.NumVars(), p.NumConstraints())
		}
		x := p.AddVar("x", -1)
		p.AddRow([]Var{x}, []float64{1}, LE, float64(i+1))
		s, err := p.Solve()
		if err != nil {
			t.Fatalf("iteration %d: Solve: %v", i, err)
		}
		if math.Abs(s.Value(x)-float64(i+1)) > 1e-9 {
			t.Fatalf("iteration %d: x = %v, want %v", i, s.Value(x), float64(i+1))
		}
		ReleaseProblem(p)
	}
}
