package lp

import (
	"errors"
	"math"
)

// tableau holds the dense simplex tableau. Columns: the n structural
// variables, then slack/surplus variables, then artificial variables.
// Rows: one per constraint, plus the objective row held separately.
// Every buffer is grown in place and reused across solves; a tableau
// lives inside a Workspace and is rebuilt by init from the workspace's
// equilibrated rows.
type tableau struct {
	m, n   int // constraints, structural variables
	ncols  int // total columns (structural + slack + artificial)
	nslack int
	nart   int
	a      []float64 // m × ncols, row-major
	b      []float64 // m
	basis  []int     // column index basic in each row
	isArt  []bool    // per column
	art    []int     // column indices of artificial variables

	// idCol[i] is the column that started as row i's identity column
	// (+1 slack for LE rows, +1 artificial for GE/EQ rows): after
	// pivoting it holds B⁻¹e_i, from which the simplex multipliers are
	// read. slack[i] is row i's slack or surplus column, -1 for an EQ
	// row. flip[i] marks rows negated during rhs normalization (their
	// multiplier changes sign). degenerate is set when phase 1 leaves a
	// redundant row's artificial basic.
	idCol      []int
	slack      []int
	flip       []bool
	degenerate bool

	pivots int     // pivots performed since the workspace was made
	nz     []int32 // pivot scratch: the pivot row's non-zero columns

	cost []float64 // active phase's cost vector (phase 2's stays for duals)
	rc   []float64 // reduced costs, recomputed each iteration
	y    []float64 // dual multipliers

	// installBasis scratch.
	warmRow   []int
	warmTaken []bool
	warmNeed  []int
}

// init rebuilds the tableau from the workspace's equilibrated rows. It
// normalizes rhs >= 0 (a row with a negative rhs enters negated, its
// LE/GE sense swapped) as it lays out the dense matrix with slack and
// artificial columns and a starting basis of identity columns. The
// equilibrated rows themselves are left as they are, so a rebuild after
// a declined rung needs no second equilibration.
func (t *tableau) init(ws *Workspace, nvars int) {
	sm := len(ws.eqSense)
	t.m, t.n = sm, nvars
	t.degenerate = false
	t.nslack, t.nart = 0, 0
	t.flip = grow(t.flip, sm)
	for i := 0; i < sm; i++ {
		t.flip[i] = ws.eqRhs[i] < 0
		sense := t.sense(ws, i)
		if sense != EQ {
			t.nslack++
		}
		if sense != LE {
			t.nart++
		}
	}
	t.ncols = nvars + t.nslack + t.nart
	t.a = growZero(t.a, sm*t.ncols)
	t.b = grow(t.b, sm)
	t.basis = grow(t.basis, sm)
	t.idCol = grow(t.idCol, sm)
	t.slack = grow(t.slack, sm)
	t.isArt = growZero(t.isArt, t.ncols)
	t.art = t.art[:0]

	slackAt := nvars
	artAt := nvars + t.nslack
	for i := 0; i < sm; i++ {
		row := t.a[i*t.ncols : (i+1)*t.ncols]
		lo, hi := ws.eqRowStart[i], ws.eqRowStart[i+1]
		sign := 1.0 // ±1 scales exactly: the negated row, bit for bit
		if t.flip[i] {
			sign = -1
		}
		for k := lo; k < hi; k++ {
			row[ws.eqIdx[k]] = sign * ws.eqCoef[k]
		}
		t.b[i] = sign * ws.eqRhs[i]
		t.slack[i] = -1
		switch t.sense(ws, i) {
		case LE:
			row[slackAt] = 1
			t.basis[i], t.idCol[i], t.slack[i] = slackAt, slackAt, slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			t.slack[i] = slackAt
			slackAt++
			fallthrough
		case EQ:
			row[artAt] = 1
			t.basis[i], t.idCol[i] = artAt, artAt
			t.art = append(t.art, artAt)
			t.isArt[artAt] = true
			artAt++
		}
	}
}

// sense is row i's sense in the tableau: the equilibrated row's, LE and
// GE swapped when init negated the row.
func (t *tableau) sense(ws *Workspace, i int) Sense {
	s := ws.eqSense[i]
	if t.flip[i] {
		switch s {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return s
}

// installBasis tries to install a basis — a prior solve's snapshot or
// the problem's declared start — on a freshly init'd tableau. The basis
// is treated as a set of columns: rows whose init identity column is
// already in the set are kept as-is, and every remaining column is
// pivoted in on the free row with the largest |pivot|. It returns
// DeclineNone with the tableau at that vertex, ready for phase 2, or
// the reason the basis cannot be used; dirty then says whether pivots
// already changed the tableau, in which case the caller must rebuild it
// before doing anything else. The compatibility checks (dimensions,
// column range, artificials) run before the first pivot.
func (t *tableau) installBasis(w *WarmStart) (why Decline, dirty bool) {
	if w.m != t.m || w.n != t.n || w.ncols != t.ncols || len(w.cols) < t.m {
		return DeclineMismatch, false
	}
	for _, c := range w.cols[:t.m] {
		if c < 0 || c >= t.ncols || t.isArt[c] {
			return DeclineMismatch, false
		}
	}
	nc := t.ncols
	t.warmRow = grow(t.warmRow, nc)
	colRow := t.warmRow
	for j := 0; j < nc; j++ {
		colRow[j] = -1
	}
	for i := 0; i < t.m; i++ {
		colRow[t.basis[i]] = i
	}
	t.warmTaken = grow(t.warmTaken, t.m)
	taken := t.warmTaken[:t.m]
	for i := range taken {
		taken[i] = false
	}
	t.warmNeed = t.warmNeed[:0]
	for _, c := range w.cols[:t.m] {
		if r := colRow[c]; r >= 0 && !taken[r] {
			taken[r] = true
			continue
		}
		t.warmNeed = append(t.warmNeed, c)
	}
	for _, c := range t.warmNeed {
		r, best := -1, 1e-7
		for i := 0; i < t.m; i++ {
			if taken[i] {
				continue
			}
			if v := math.Abs(t.a[i*nc+c]); v > best {
				best, r = v, i
			}
		}
		if r < 0 {
			// No usable pivot: the basis is singular for these
			// coefficients (or a duplicate column slipped in).
			return DeclineSingular, dirty
		}
		t.pivot(r, c)
		taken[r] = true
		dirty = true
	}
	// The installed basis must be primal feasible for this rhs —
	// B⁻¹b ≥ 0 up to roundoff — or phase 2 would optimize from an
	// infeasible vertex and return garbage.
	for i := 0; i < t.m; i++ {
		if t.b[i] >= 0 {
			continue
		}
		if t.b[i] < -1e-9 {
			return DeclineInfeasible, dirty
		}
		t.b[i] = 0
	}
	return DeclineNone, dirty
}

// pivot performs a pivot on (row, col) using Gauss-Jordan elimination.
//
// Its cost follows the pivot row's non-zeros: scaling the row also
// gathers their column indices, and when they are few (sparsePivot) each
// other row is updated over those columns alone. The entries skipped
// hold pr[j] = ±0, where ri[j] − f·pr[j] would give back ri[j] except,
// at most, for the sign of a zero, and no test the solver makes on the
// tableau (comparisons, |·|, == 0, or the duals' sums from +0) can tell
// −0 from +0. So the sparse update performs the same pivot as the dense
// one, and every solve takes the same path to the same bits.
func (t *tableau) pivot(row, col int) {
	nc := t.ncols
	pr := t.a[row*nc : (row+1)*nc]
	inv := 1 / pr[col]
	nz := t.nz[:0]
	for j := range pr {
		pr[j] *= inv
		if pr[j] != 0 {
			nz = append(nz, int32(j))
		}
	}
	t.nz = nz
	t.b[row] *= inv
	pr[col] = 1 // fight rounding
	sparse := sparsePivot(len(nz), nc)
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		ri := t.a[i*nc : (i+1)*nc]
		f := ri[col]
		if f == 0 {
			continue
		}
		if sparse {
			for _, j := range nz {
				ri[j] -= f * pr[j]
			}
		} else {
			subScaled(ri, pr, f)
		}
		ri[col] = 0
		t.b[i] -= f * t.b[row]
	}
	t.basis[row] = col
	t.pivots++
}

// sparsePivot reports whether a pivot row with nnz non-zeros among ncols
// columns is updated over its non-zeros rather than densely. An indexed
// entry costs more than a dense one (a gather and two bounds checks);
// on a 147 × 635 tableau the two loops break even near half density,
// so the cut sits there. The placement LPs' pivot rows are mostly under
// 20 % or over 70 % dense: cutting at a third or two thirds measured the
// same.
func sparsePivot(nnz, ncols int) bool { return nnz*2 < ncols }

// subScaled sets dst[j] -= f·src[j] for every j < len(dst); src must be
// at least as long. Eight entries per step share one bounds check, the
// re-slice of dst (src's is proven away), where a plain loop checks src
// at every entry. It is the dense half of pivot and the reduced-cost
// pass, which between them are nearly all of a cold 50-site solve.
func subScaled(dst, src []float64, f float64) {
	src = src[:len(dst)]
	for j := 0; j+8 <= len(dst); j += 8 {
		d, s := dst[j:j+8:j+8], src[j:j+8:j+8]
		d[0] -= f * s[0]
		d[1] -= f * s[1]
		d[2] -= f * s[2]
		d[3] -= f * s[3]
		d[4] -= f * s[4]
		d[5] -= f * s[5]
		d[6] -= f * s[6]
		d[7] -= f * s[7]
	}
	for j := len(dst) &^ 7; j < len(dst); j++ {
		dst[j] -= f * src[j]
	}
}

// simplexLoop runs the simplex method minimizing the reduced-cost vector
// derived from cost (one entry per column). When excludeArt is set,
// artificial columns may not enter the basis (phase 2). Returns
// ErrUnbounded when no leaving row exists for an improving column.
func (t *tableau) simplexLoop(cost []float64, excludeArt bool) error {
	// Reduced costs are recomputed from scratch each iteration via the
	// basis multipliers; for the problem sizes here (≤ ~3000 columns,
	// ≤ ~200 rows) this is plenty fast and numerically robust.
	nc := t.ncols
	t.rc = grow(t.rc, nc)
	rc := t.rc
	maxIter := 50 * (t.m + nc)
	if maxIter < 10000 {
		maxIter = 10000
	}
	stall := 0
	prevObj := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		// y = c_B B^{-1} is implicit: since we keep the full tableau in
		// canonical form, reduced cost of col j is cost[j] - Σ_i
		// cost[basis[i]] * a[i][j].
		copy(rc, cost)
		for i, bc := range t.basis {
			cb := cost[bc]
			if cb == 0 {
				continue
			}
			subScaled(rc, t.a[i*nc:(i+1)*nc], cb)
		}
		// Objective value for stall detection.
		obj := 0.0
		for i, bc := range t.basis {
			obj += cost[bc] * t.b[i]
		}
		if obj < prevObj-eps {
			stall = 0
		} else {
			stall++
		}
		prevObj = obj

		bland := stall > 2*(t.m+2)

		// Entering column.
		enter := -1
		best := -epsCost
		for j := 0; j < nc; j++ {
			if excludeArt && t.isArt[j] {
				continue
			}
			if rc[j] < -epsCost {
				if bland {
					enter = j
					break
				}
				if rc[j] < best {
					best = rc[j]
					enter = j
				}
			}
		}
		if enter == -1 {
			return nil // optimal
		}
		// Leaving row: min ratio test. Ties (ubiquitous on degenerate
		// vertices, where every ratio is zero) are broken by the largest
		// pivot element — chained pivots on near-zero elements multiply
		// roundoff until the tableau's reduced costs no longer describe
		// the real problem and phase 1 misreports feasible instances as
		// infeasible. Under Bland's rule the smallest basis index wins
		// instead, preserving the anti-cycling guarantee.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i*nc+enter]
			if aij <= eps {
				continue
			}
			ratio := t.b[i] / aij
			switch {
			case ratio < bestRatio-eps:
				bestRatio = ratio
				leave = i
			case leave >= 0 && ratio < bestRatio+eps:
				if ratio < bestRatio {
					bestRatio = ratio
				}
				if bland {
					if t.basis[i] < t.basis[leave] {
						leave = i
					}
				} else if aij > t.a[leave*nc+enter] {
					leave = i
				}
			}
		}
		if leave == -1 {
			return ErrUnbounded
		}
		t.pivot(leave, enter)
	}
	return errors.New("lp: simplex iteration limit exceeded")
}

// phase1 drives artificial variables to zero, establishing feasibility.
func (t *tableau) phase1() error {
	if t.nart == 0 {
		return nil
	}
	t.cost = growZero(t.cost, t.ncols)
	cost := t.cost
	for _, c := range t.art {
		cost[c] = 1
	}
	if err := t.simplexLoop(cost, false); err != nil {
		if errors.Is(err, ErrUnbounded) {
			// Phase 1 objective is bounded below by 0; unbounded here
			// indicates a numerical breakdown, not a model property.
			return errors.New("lp: phase 1 reported unbounded (numerical failure)")
		}
		return err
	}
	// Check artificial objective ~ 0.
	obj := 0.0
	for i, bc := range t.basis {
		obj += cost[bc] * t.b[i]
	}
	if obj > 1e-6 {
		return ErrInfeasible
	}
	// Drive any artificial still in the basis (at zero level) out of it.
	nc := t.ncols
	for i, bc := range t.basis {
		if !t.isArt[bc] {
			continue
		}
		pivoted := false
		ri := t.a[i*nc : (i+1)*nc]
		for j := 0; j < nc; j++ {
			if t.isArt[j] {
				continue
			}
			if math.Abs(ri[j]) > 1e-7 {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		// If the row is all zeros over non-artificial columns it is a
		// redundant constraint; leaving the artificial basic at level 0
		// is harmless as long as it never re-enters (phase 2 disallows
		// artificial columns from entering) — but the basis is then
		// degenerate, which SolveInto surfaces via Status.
		if !pivoted {
			t.degenerate = true
		}
	}
	return nil
}

// phase2 minimizes the true (equilibrated) objective over the feasible
// region found in phase 1, never letting artificial columns re-enter.
// obj has one entry per structural variable; slack/artificial columns
// cost zero. The cost vector stays in t.cost for duals to read.
func (t *tableau) phase2(obj []float64) error {
	t.cost = growZero(t.cost, t.ncols)
	copy(t.cost, obj)
	return t.simplexLoop(t.cost, true)
}

// duals reads the phase-2 simplex multipliers y = c_B·B⁻¹ off the final
// tableau: column idCol[i] started as e_i, so it now holds B⁻¹e_i and
// y_i = Σ_k cost[basis[k]]·a[k][idCol[i]]. Rows negated during rhs
// normalization get their multiplier's sign restored. Must run after
// phase2, whose cost vector is still in t.cost. The returned slice is
// workspace-owned scratch.
//
// It reads the tableau one basic row at a time, skipping rows of zero
// cost, and adds row k's terms into every y_i before moving to k+1: each
// y_i is still summed from +0 in ascending k.
func (t *tableau) duals() []float64 {
	t.y = growZero(t.y, t.m)
	y := t.y
	nc := t.ncols
	for k, bc := range t.basis {
		cb := t.cost[bc]
		if cb == 0 {
			continue
		}
		rk := t.a[k*nc : (k+1)*nc]
		for i, col := range t.idCol {
			y[i] += cb * rk[col]
		}
	}
	for i := range y {
		if t.flip[i] {
			y[i] = -y[i]
		}
	}
	return y
}

// extract reads off structural variable values from the tableau into x,
// which must be zeroed and at least t.n long. It deliberately does NOT
// clamp negative basic values: SolveInto judges the unscaled point
// against the feasibility tolerance and either zeroes near-zero
// negatives or rejects the solve with a ResidualError. (An earlier
// version clamped only values in (−1e-7, 0) here, in scaled space —
// larger negative residue, amplified by the column unscaling, leaked
// out as negative task fractions.)
func (t *tableau) extract(x []float64) {
	for i, bc := range t.basis {
		if bc < t.n {
			x[bc] = t.b[i]
		}
	}
}
