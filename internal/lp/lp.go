// Package lp implements a dense two-phase primal simplex solver for
// linear programs in the form
//
//	minimize    c·x
//	subject to  A x {<=,=,>=} b
//	            x >= 0
//
// It substitutes for the Gurobi solver used by the Tetrium paper. The LPs
// formulated in the paper (map-task and reduce-task placement, WAN-budget
// minimization) are small — O(n²) variables for n sites, with n <= 50 —
// so an exact dense simplex finds the same optimum the paper's solver
// does, with no external dependencies.
//
// The solver uses Dantzig pricing for speed, switching to Bland's rule
// when it detects stalling, which guarantees termination on degenerate
// problems.
//
// The tableau is dense, but its one pivot kernel does work in
// proportion to the non-zeros it touches (simplex.go). Scaling the pivot
// row gathers its non-zero columns; when they are fewer than half, every
// other row is updated over those columns alone, and otherwise by an
// unrolled dense loop, which the reduced-cost pass shares. A skipped
// column holds ±0 in the pivot row, where the dense update could change
// nothing but the sign of a zero, and no test the solver makes tells −0
// from +0: both updates choose the same pivots and return the same bits
// (TestPivotMatchesDenseReference). This is the dense algorithm run
// faster, not a sparse or revised simplex.
//
// Phase 2 needs a feasible vertex to start from, and a solve takes the
// first it can get from a three-rung ladder (warm.go): a prior solve's
// basis (SolveWarm), else the vertex the caller declared while building
// the problem (DeclareBasic), else whatever phase 1 finds. The first two
// only ever save time: a basis that does not install, is not primal
// feasible, or leads phase 2 to an error is dropped and the next rung
// starts from a rebuilt tableau, so every entry reaches the verdict a
// phase-1 solve reaches.
//
// Constraint rows are stored as flat parallel index/coefficient slices
// in ascending variable order, so every pass over a row — equilibration,
// tableau assembly, residual checks — visits entries in the same order
// on every run and solves are bit-for-bit reproducible. All solver
// scratch state lives in a reusable Workspace; the steady-state solve
// path allocates only the returned Solution.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // a·x <= b
	GE              // a·x >= b
	EQ              // a·x == b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	// OptimalDegenerate marks a successful solve in which phase 1 could
	// not drive every artificial variable out of the basis: some
	// constraint row is redundant (linearly dependent on the others) and
	// its artificial stayed basic at level zero. The point returned is
	// still optimal, but callers doing sensitivity analysis — and the
	// internal/check certifier — should know the basis is degenerate.
	OptimalDegenerate
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case OptimalDegenerate:
		return "optimal (degenerate basis)"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors returned by Solve for non-optimal outcomes.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
)

// FeasTol is the relative feasibility tolerance of Solve's self-check:
// a returned point whose worst constraint violation (or negative
// variable) exceeds this relative residual is rejected with a
// *ResidualError instead of being handed to the caller.
const FeasTol = 1e-6

// ResidualError reports that the simplex terminated at a point that
// violates the problem's own constraints beyond FeasTol — a numerical
// failure, not a property of the model. Row is the worst-violated
// constraint index, or -1 when the violation is a negative variable
// (then BadVar identifies it). Residual is the relative violation.
type ResidualError struct {
	Residual float64
	Row      int
	BadVar   Var
}

func (e *ResidualError) Error() string {
	if e.Row < 0 {
		return fmt.Sprintf("lp: solution infeasible: variable %d negative beyond tolerance (relative residual %.3g)", int(e.BadVar), e.Residual)
	}
	return fmt.Sprintf("lp: solution infeasible: constraint %d violated (relative residual %.3g)", e.Row, e.Residual)
}

// Var identifies a decision variable within a Problem.
type Var int

// Problem is a linear program under construction. All variables are
// implicitly bounded below by zero. The zero value is not usable; call
// NewProblem (or AcquireProblem to reuse a pooled one).
//
// Constraint rows live in flat parallel slices: row i's entries are
// ridx[rowStart[i]:rowStart[i+1]] (variable indices, strictly
// ascending) and rcoef[...] (coefficients). The ascending order is what
// makes solves deterministic: no pass over a row depends on map
// iteration order.
type Problem struct {
	obj      []float64 // objective coefficient per variable
	names    []string
	rowStart []int // len NumConstraints+1 once a row exists; rowStart[0] == 0
	ridx     []int32
	rcoef    []float64
	sense    []Sense
	rhs      []float64

	// start[i] is the variable declared basic in constraint i at the
	// caller's starting vertex, -1 for a row that keeps its slack; rows
	// past len(start) have no declaration (see DeclareBasic).
	start []int32

	// AddConstraint scratch (map entries staged here before AddRow).
	scratchV []Var
	scratchC []float64
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem {
	return &Problem{}
}

// Reset empties the problem for reuse, keeping allocated capacity.
func (p *Problem) Reset() {
	p.obj = p.obj[:0]
	p.names = p.names[:0]
	p.rowStart = p.rowStart[:0]
	p.ridx = p.ridx[:0]
	p.rcoef = p.rcoef[:0]
	p.sense = p.sense[:0]
	p.rhs = p.rhs[:0]
	p.start = p.start[:0]
}

// AddVar adds a variable with the given objective coefficient and returns
// its handle. The name is used only for diagnostics; pass "" on hot
// paths to avoid building throwaway strings.
func (p *Problem) AddVar(name string, objCoef float64) Var {
	p.obj = append(p.obj, objCoef)
	p.names = append(p.names, name)
	return Var(len(p.obj) - 1)
}

// NumVars reports the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumConstraints reports the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.sense) }

// SetObjCoef overwrites the objective coefficient of v.
func (p *Problem) SetObjCoef(v Var, c float64) {
	p.obj[v] = c
}

// AddRow adds the constraint Σ coefs[k]·x[vars[k]] sense rhs without
// allocating: entries are copied into the problem's flat row storage in
// ascending variable order (zero coefficients are dropped). The slices
// may be reused by the caller. A variable repeated within one row
// panics, as does a variable that was never added.
func (p *Problem) AddRow(vars []Var, coefs []float64, sense Sense, rhs float64) {
	if len(vars) != len(coefs) {
		panic("lp: AddRow vars/coefs length mismatch")
	}
	if len(p.rowStart) == 0 {
		p.rowStart = append(p.rowStart, 0)
	}
	start := len(p.ridx)
	for k, v := range vars {
		if int(v) < 0 || int(v) >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", v))
		}
		if coefs[k] == 0 {
			continue
		}
		p.ridx = append(p.ridx, int32(v))
		p.rcoef = append(p.rcoef, coefs[k])
	}
	seg := p.ridx[start:]
	sorted := true
	for k := 1; k < len(seg); k++ {
		if seg[k] <= seg[k-1] {
			sorted = false
			break
		}
	}
	if !sorted {
		cseg := p.rcoef[start:]
		for k := 1; k < len(seg); k++ {
			vi, ci := seg[k], cseg[k]
			j := k - 1
			for j >= 0 && seg[j] > vi {
				seg[j+1], cseg[j+1] = seg[j], cseg[j]
				j--
			}
			seg[j+1], cseg[j+1] = vi, ci
		}
		for k := 1; k < len(seg); k++ {
			if seg[k] == seg[k-1] {
				panic(fmt.Sprintf("lp: duplicate variable %d in constraint row", seg[k]))
			}
		}
	}
	p.sense = append(p.sense, sense)
	p.rhs = append(p.rhs, rhs)
	p.rowStart = append(p.rowStart, len(p.ridx))
}

// AddConstraint adds the row coefs·x sense rhs. The coefficient map is
// copied; the caller may reuse it. Entries land in ascending variable
// order regardless of map iteration order, so the resulting problem is
// identical across runs.
func (p *Problem) AddConstraint(coefs map[Var]float64, sense Sense, rhs float64) {
	vs := p.scratchV[:0]
	cs := p.scratchC[:0]
	for v, c := range coefs {
		vs = append(vs, v)
		cs = append(cs, c)
	}
	p.scratchV, p.scratchC = vs, cs
	p.AddRow(vs, cs, sense, rhs)
}

// DeclareBasic states that at the caller's starting vertex variable v is
// basic in constraint row (rows number from 0 in AddRow order); a row
// with no declaration keeps its slack. A problem with at least one
// declaration enters phase 2 at that vertex instead of searching for
// one with phase 1, which is worth having whenever the model names a
// feasible point the optimum is usually near. The declaration is a
// hint about speed, never about the answer: if the declared columns are
// singular, the vertex is not primal feasible, a row without a slack
// (an equality) is left undeclared, or phase 2 fails from there, the
// solve runs phase 1 as if nothing had been declared.
func (p *Problem) DeclareBasic(row int, v Var) {
	if row < 0 || row >= p.NumConstraints() {
		panic(fmt.Sprintf("lp: DeclareBasic on unknown constraint %d", row))
	}
	if int(v) < 0 || int(v) >= len(p.obj) {
		panic(fmt.Sprintf("lp: DeclareBasic of unknown variable %d", v))
	}
	for len(p.start) <= row {
		p.start = append(p.start, -1)
	}
	p.start[row] = int32(v)
}

// row returns the flat index/coefficient storage of constraint i.
func (p *Problem) row(i int) (idx []int32, coef []float64) {
	lo, hi := p.rowStart[i], p.rowStart[i+1]
	return p.ridx[lo:hi], p.rcoef[lo:hi]
}

// Solution is the result of a successful solve.
type Solution struct {
	// Status is Optimal, or OptimalDegenerate when phase 1 left a
	// redundant row's artificial variable basic at level zero.
	Status    Status
	Objective float64
	X         []float64 // value per variable, indexed by Var

	// Dual holds one simplex multiplier per constraint (indexed like
	// AddConstraint order; rows dropped as trivially redundant get 0).
	// Sign convention for this minimization form: y_i <= 0 for LE rows,
	// y_i >= 0 for GE rows, free for EQ rows, and weak duality gives
	// DualObjective() <= Objective for any dual-feasible y. The
	// internal/check certifier uses these to bound the optimality gap
	// without re-solving.
	Dual []float64

	// MaxResidual is the largest relative constraint violation of X
	// against the original problem (always <= FeasTol for a returned
	// solution; larger residuals become a *ResidualError instead).
	MaxResidual float64

	// Warm reports that the solve re-entered phase 2 from a prior basis
	// (SolveWarm with a compatible WarmStart): Rung == RungPrior. Every
	// other solve — one that entered at the problem's declared start
	// included — leaves it false.
	Warm bool

	// Rung is the rung of the ladder phase 2 started from, and
	// PriorDeclined why a valid prior basis handed to SolveWarm was not
	// that rung (DeclineNone when it was, or when there was none).
	Rung          Rung
	PriorDeclined Decline
}

// Value returns the solved value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

const (
	eps     = 1e-9
	epsCost = 1e-7
)

// Solve minimizes the objective and returns the optimal solution.
// It returns ErrInfeasible or ErrUnbounded for those outcomes.
//
// Solve is a thin wrapper over SolveInto with a pooled workspace;
// callers issuing many solves can hold their own Workspace instead.
func (p *Problem) Solve() (*Solution, error) {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	return p.SolveInto(ws)
}

// SolveInto is Solve using the caller's workspace for every scratch
// buffer the solve needs. The returned Solution does not alias the
// workspace, so ws may be reused (or released) immediately.
//
// The problem is equilibrated before solving: each column is divided by
// its largest constraint coefficient and each row by its largest scaled
// coefficient, bringing every entry to O(1). The placement LPs mix
// coefficients of order 10⁹ (bytes, bytes/sec) with order-1 task
// fractions; without scaling, floating-point cancellation in the
// tableau swamps the small coefficients and the simplex can terminate
// at an infeasible point.
func (p *Problem) SolveInto(ws *Workspace) (*Solution, error) {
	return p.solve(ws, nil)
}

// finishSolve runs phase 2 on the prepared (feasible-basis) tableau and
// extracts the solution: unscaling, negative clamping, the residual
// self-check against the original rows, and dual recovery. rung records
// where that basis came from.
func (p *Problem) finishSolve(ws *Workspace, rung Rung) (*Solution, error) {
	t := &ws.tab
	if err := t.phase2(ws.eqObj); err != nil {
		return nil, err
	}
	x := make([]float64, t.n)
	t.extract(x)
	for j := range x {
		x[j] /= ws.colScale[j]
	}
	// Clamp small negatives the simplex leaves behind on degenerate
	// bases; anything beyond the feasibility tolerance is a genuine
	// numerical failure and is rejected below rather than leaked to the
	// caller as a negative task fraction.
	xscale := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > xscale {
			xscale = a
		}
	}
	negTol := FeasTol * (1 + xscale)
	for j, v := range x {
		if v < 0 {
			if v < -negTol {
				return nil, &ResidualError{Residual: -v / (1 + xscale), Row: -1, BadVar: Var(j)}
			}
			x[j] = 0
		}
	}
	// Self-check: residuals of the clamped point against the *original*
	// (unscaled) constraints.
	worst, worstRow := 0.0, -1
	for i := 0; i < p.NumConstraints(); i++ {
		if r := p.rowResidual(i, x, xscale); r > worst {
			worst, worstRow = r, i
		}
	}
	if worst > FeasTol {
		return nil, &ResidualError{Residual: worst, Row: worstRow}
	}
	// Recover dual multipliers for the original rows from the final
	// tableau's simplex multipliers (undoing the row/column scaling).
	dual := make([]float64, p.NumConstraints())
	yScaled := t.duals()
	for i := range dual {
		if si := ws.rowMap[i]; si >= 0 {
			dual[i] = yScaled[si] * ws.objFactor / ws.rowScale[si]
		}
	}
	obj := 0.0
	for i, c := range p.obj {
		obj += c * x[i]
	}
	status := Optimal
	if t.degenerate {
		status = OptimalDegenerate
	}
	return &Solution{Status: status, Objective: obj, X: x, Dual: dual, MaxResidual: worst, Warm: rung == RungPrior, Rung: rung}, nil
}

// rowResidual returns the relative violation of constraint i at point x:
// the absolute violation divided by the row's activity scale, so a 1e9-
// coefficient byte constraint and a unit fraction constraint are judged
// by the same yardstick.
func (p *Problem) rowResidual(i int, x []float64, xinf float64) float64 {
	idx, coef := p.row(i)
	// Backward-error yardstick: a violation counts relative to
	// ‖a_i‖∞·‖x‖∞ (plus the rhs magnitude), the perturbation scale a
	// backward-stable solve can actually promise. Measuring against the
	// *achieved* activity terms instead would demand more than floating
	// point can deliver on rows whose large terms cancel to a small
	// activity, or whose variables all sit at noise level.
	act, cmax := 0.0, 0.0
	for k, v := range idx {
		c := coef[k]
		act += c * x[v]
		if a := math.Abs(c); a > cmax {
			cmax = a
		}
	}
	scale := 1 + math.Abs(p.rhs[i])
	if s := cmax * xinf; s > scale {
		scale = s
	}
	viol := 0.0
	switch p.sense[i] {
	case LE:
		viol = act - p.rhs[i]
	case GE:
		viol = p.rhs[i] - act
	case EQ:
		viol = math.Abs(act - p.rhs[i])
	}
	if viol <= 0 {
		return 0
	}
	return viol / scale
}

// Residual returns the relative feasibility violation of an arbitrary
// point x (indexed by Var) against the problem: the worst constraint
// residual, or the worst negative-variable excess. Exported for the
// internal/check certifier.
func (p *Problem) Residual(x []float64) float64 {
	worst := 0.0
	xscale := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > xscale {
			xscale = a
		}
	}
	for _, v := range x {
		if v < 0 {
			if r := -v / (1 + xscale); r > worst {
				worst = r
			}
		}
	}
	for i := 0; i < p.NumConstraints(); i++ {
		if r := p.rowResidual(i, x, xscale); r > worst {
			worst = r
		}
	}
	return worst
}

// Constraint returns a copy of constraint i's row: its coefficient map,
// sense and right-hand side. Exported for the internal/check certifier
// and for diagnostics.
func (p *Problem) Constraint(i int) (coefs map[Var]float64, sense Sense, rhs float64) {
	idx, coef := p.row(i)
	cp := make(map[Var]float64, len(idx))
	for k, v := range idx {
		cp[Var(v)] = coef[k]
	}
	return cp, p.sense[i], p.rhs[i]
}

// ObjCoef returns the objective coefficient of v.
func (p *Problem) ObjCoef(v Var) float64 { return p.obj[v] }

// VarName returns the diagnostic name v was added with.
func (p *Problem) VarName(v Var) string { return p.names[v] }

// DualObjective evaluates the dual objective y·b for a multiplier
// vector indexed like the constraints. By weak duality it lower-bounds
// the optimal objective whenever y is dual-feasible.
func (p *Problem) DualObjective(y []float64) float64 {
	obj := 0.0
	for i, r := range p.rhs {
		obj += y[i] * r
	}
	return obj
}

// nearOne reports |ln g| < 10⁻³ without taking the logarithm: the bounds
// are math.Exp(∓1e-3), the closed lower end being where math.Log's
// rounding puts it. Equilibration asks this of every row and column of
// every round, and the logarithm was 8 % of an 8-site solve.
func nearOne(g float64) bool {
	return g >= 0.99900049983337502 && g < 1.0010005001667084
}

// equilibrate writes a scaled copy of the problem into ws (substitution
// x'_j = colScale_j · x_j, so x_j = x'_j/colScale_j recovers the
// original solution). It applies a few rounds of geometric-mean
// row/column scaling, which shrinks the coefficient *spread* — a
// max-based scaling would leave columns mixing 10¹⁰-scale byte
// coefficients with unit task-fraction coefficients at a 10⁻¹⁰ relative
// magnitude, below the solver's zero thresholds. A row or column whose
// geometric mean is within e^±10⁻³ of 1 is left alone, and the rounds
// stop after the first that rescales nothing, since every later round
// would read the same matrix and do the same. Rows whose
// coefficients are all zero are checked for trivial consistency and
// dropped; ws.rowMap records the surviving-row index of each original
// row (−1 when dropped) and SolveInto uses it plus ws.rowScale /
// ws.objFactor to map dual multipliers back: y_i = y'_si·objFactor/row_si.
func (p *Problem) equilibrate(ws *Workspace) error {
	ws.equilibrations++
	n := len(p.obj)
	m := p.NumConstraints()
	ws.eqRowStart = ws.eqRowStart[:0]
	ws.eqIdx = ws.eqIdx[:0]
	ws.eqCoef = ws.eqCoef[:0]
	ws.eqSense = ws.eqSense[:0]
	ws.eqRhs = ws.eqRhs[:0]
	ws.rowMap = grow(ws.rowMap, m)
	ws.eqRowStart = append(ws.eqRowStart, 0)
	for i := 0; i < m; i++ {
		lo, hi := p.rowStart[i], p.rowStart[i+1]
		ws.rowMap[i] = -1
		if lo == hi { // AddRow drops zero coefficients, so empty means trivial
			switch {
			case p.sense[i] == LE && p.rhs[i] >= -1e-12,
				p.sense[i] == GE && p.rhs[i] <= 1e-12,
				p.sense[i] == EQ && math.Abs(p.rhs[i]) <= 1e-12:
				continue
			default:
				return ErrInfeasible
			}
		}
		ws.rowMap[i] = len(ws.eqSense)
		ws.eqIdx = append(ws.eqIdx, p.ridx[lo:hi]...)
		ws.eqCoef = append(ws.eqCoef, p.rcoef[lo:hi]...)
		ws.eqSense = append(ws.eqSense, p.sense[i])
		ws.eqRhs = append(ws.eqRhs, p.rhs[i])
		ws.eqRowStart = append(ws.eqRowStart, len(ws.eqIdx))
	}
	sm := len(ws.eqSense)

	ws.colScale = grow(ws.colScale, n)
	for j := range ws.colScale {
		ws.colScale[j] = 1
	}
	ws.rowScale = grow(ws.rowScale, sm)
	for i := range ws.rowScale {
		ws.rowScale[i] = 1
	}
	ws.minC = grow(ws.minC, n)
	ws.maxC = grow(ws.maxC, n)
	const rounds = 6
	for iter := 0; iter < rounds; iter++ {
		// Row pass: divide each row by the geometric mean of its extreme
		// coefficient magnitudes.
		rescaled := false
		for i := 0; i < sm; i++ {
			lo, hi := ws.eqRowStart[i], ws.eqRowStart[i+1]
			minA, maxA := math.Inf(1), 0.0
			for k := lo; k < hi; k++ {
				if a := math.Abs(ws.eqCoef[k]); a > 0 {
					if a < minA {
						minA = a
					}
					if a > maxA {
						maxA = a
					}
				}
			}
			if maxA == 0 {
				continue
			}
			g := math.Sqrt(minA * maxA)
			if g <= 0 || nearOne(g) {
				continue
			}
			for k := lo; k < hi; k++ {
				ws.eqCoef[k] /= g
			}
			ws.eqRhs[i] /= g
			ws.rowScale[i] *= g
			rescaled = true
		}
		// Column pass.
		minC, maxC := ws.minC, ws.maxC
		for j := 0; j < n; j++ {
			minC[j] = math.Inf(1)
			maxC[j] = 0
		}
		for k, v := range ws.eqIdx {
			if a := math.Abs(ws.eqCoef[k]); a > 0 {
				if a < minC[v] {
					minC[v] = a
				}
				if a > maxC[v] {
					maxC[v] = a
				}
			}
		}
		// Per-column divisor, staged into minC so the apply pass below is
		// one linear sweep over the flat storage.
		any := false
		for j := 0; j < n; j++ {
			g := 1.0
			if maxC[j] != 0 {
				if gg := math.Sqrt(minC[j] * maxC[j]); gg > 0 && !nearOne(gg) {
					g = gg
					ws.colScale[j] *= g
					any = true
				}
			}
			minC[j] = g
		}
		if any {
			for k, v := range ws.eqIdx {
				if g := minC[v]; g != 1 {
					ws.eqCoef[k] /= g
				}
			}
		} else if !rescaled {
			break
		}
	}

	// Final row pass: pin every row's largest coefficient at exactly 1.
	// The geometric-mean rounds shrink the *spread* but can leave a row
	// uniformly tiny (or huge) in absolute terms; the simplex works with
	// absolute epsilons, so a row sitting at 1e-10 has violations the
	// solver cannot see that map back to large relative violations of
	// the original constraint.
	for i := 0; i < sm; i++ {
		lo, hi := ws.eqRowStart[i], ws.eqRowStart[i+1]
		maxA := 0.0
		for k := lo; k < hi; k++ {
			if a := math.Abs(ws.eqCoef[k]); a > maxA {
				maxA = a
			}
		}
		if maxA == 0 {
			continue
		}
		for k := lo; k < hi; k++ {
			ws.eqCoef[k] /= maxA
		}
		ws.eqRhs[i] /= maxA
		ws.rowScale[i] *= maxA
	}

	ws.eqObj = grow(ws.eqObj, n)
	objMax := 0.0
	for j := 0; j < n; j++ {
		ws.eqObj[j] = p.obj[j] / ws.colScale[j]
		if a := math.Abs(ws.eqObj[j]); a > objMax {
			objMax = a
		}
	}
	if objMax > 0 {
		for j := range ws.eqObj {
			ws.eqObj[j] /= objMax
		}
	}
	ws.objFactor = objMax
	if ws.objFactor == 0 {
		ws.objFactor = 1
	}
	return nil
}
