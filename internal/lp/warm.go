package lp

import "fmt"

// Where phase 2 starts. A solve needs a primal feasible basis before it
// can optimize, and takes the first of three rungs that yields one:
//
//  1. Prior basis. A successful solve snapshots its final basis — the
//     set of tableau columns basic in each row — into a WarmStart, and a
//     later SolveWarm of an identically-shaped problem reinstalls it. The
//     placement LPs re-solve the same shape constantly (§4.2
//     re-placements after capacity drift, one recurring query over fresh
//     data), and the optimal basis rarely moves far, so phase 2 usually
//     ends within a handful of pivots.
//  2. Declared start. The caller named a vertex while building the
//     problem (Problem.DeclareBasic): each declared variable's column in
//     its row, the slack in every other row. SolveInto takes this rung
//     too; it needs no WarmStart.
//  3. Phase 1, the search for a vertex that the rungs above skip.
//
// Fallback rules: rungs 1 and 2 go through the same installBasis and
// the same B⁻¹b ≥ 0 gate, and are declined — Solution.PriorDeclined
// says why, for rung 1 — whenever the tableau's dimensions differ from
// the basis's, a column no longer exists, is artificial or is a missing
// slack (DeclineMismatch), the basis matrix turns out singular during
// installation (DeclineSingular), or the installed basis is primal
// infeasible for this rhs beyond roundoff (DeclineInfeasible). A phase 2
// that then fails from the installed vertex (unbounded ray, iteration
// limit, residual rejection) is a decline as well (DeclinePhase2). A
// declined rung that pivoted leaves nothing behind: the tableau is
// rebuilt from the equilibrated rows before the next rung runs (init
// leaves them untouched, so a solve equilibrates once), so SolveWarm
// and a declared start never return a worse verdict than an undeclared
// SolveInto. Only rung 1 is a warm start: Solution.Warm and every
// counter named "warm" mean a prior solve's basis.

// Rung names the starting point of a solve's phase 2.
type Rung int

// The rungs, in the order they are consulted from the top: RungPrior,
// then RungDeclared, then RungPhase1.
const (
	RungPhase1   Rung = iota // the vertex phase 1 found
	RungDeclared             // the problem's declared start (DeclareBasic)
	RungPrior                // a prior solve's basis (SolveWarm)
)

func (r Rung) String() string {
	switch r {
	case RungPhase1:
		return "phase1"
	case RungDeclared:
		return "declared"
	case RungPrior:
		return "prior"
	default:
		return fmt.Sprintf("Rung(%d)", int(r))
	}
}

// Decline is the reason a basis offered to a solve was not the one
// phase 2 started from.
type Decline int

// Decline reasons; see the fallback rules above.
const (
	DeclineNone Decline = iota
	DeclineMismatch
	DeclineSingular
	DeclineInfeasible
	DeclinePhase2
)

func (d Decline) String() string {
	switch d {
	case DeclineNone:
		return "none"
	case DeclineMismatch:
		return "mismatch"
	case DeclineSingular:
		return "singular"
	case DeclineInfeasible:
		return "infeasible"
	case DeclinePhase2:
		return "phase2"
	default:
		return fmt.Sprintf("Decline(%d)", int(d))
	}
}

// WarmStart captures the final simplex basis of a successful solve for
// reuse by SolveWarm. The zero value is an empty (cold) warm start.
// A WarmStart is not safe for concurrent use and must not be shared
// between concurrent solves; see CopyFrom.
type WarmStart struct {
	m, n, ncols int   // tableau dimensions the basis applies to
	cols        []int // basic column per row
	valid       bool
}

// Valid reports whether w holds a reusable basis.
func (w *WarmStart) Valid() bool { return w != nil && w.valid }

// Reset discards the stored basis; the next SolveWarm runs cold.
func (w *WarmStart) Reset() { w.valid = false }

// CopyFrom makes w an independent copy of src, sharing no storage — the
// way to hand a basis to another goroutine.
func (w *WarmStart) CopyFrom(src *WarmStart) {
	if src == nil || !src.valid {
		w.valid = false
		return
	}
	w.m, w.n, w.ncols = src.m, src.n, src.ncols
	w.cols = append(w.cols[:0], src.cols...)
	w.valid = true
}

// snapshotBasis records the tableau's final basis into w. A basis with
// an artificial column still basic (a redundant row left degenerate by
// phase 1) is not reusable — reinstalling it on a perturbed problem
// could start phase 2 off the feasible region — so the snapshot is
// marked invalid instead.
func (ws *Workspace) snapshotBasis(w *WarmStart) {
	t := &ws.tab
	w.valid = false
	w.m, w.n, w.ncols = t.m, t.n, t.ncols
	w.cols = grow(w.cols, t.m)
	for i := 0; i < t.m; i++ {
		c := t.basis[i]
		if t.isArt[c] {
			return
		}
		w.cols[i] = c
	}
	w.valid = true
}

// SolveWarm is SolveInto with the basis stored in w as the ladder's top
// rung (see the fallback rules above for when it is declined). On
// success the final basis is snapshotted back into w for the next call;
// on error w is reset. Solution.Warm reports whether the prior basis was
// actually used, Solution.PriorDeclined why not.
//
// SolveInto itself never consults a WarmStart: cold solves stay
// bit-identical run to run, and warm-starting is an explicit opt-in.
func (p *Problem) SolveWarm(ws *Workspace, w *WarmStart) (*Solution, error) {
	if w == nil {
		return p.SolveInto(ws)
	}
	sol, err := p.solve(ws, w)
	if err != nil {
		w.Reset()
		return nil, err
	}
	ws.snapshotBasis(w)
	return sol, nil
}

// solve walks the ladder: prior (when one is given and valid), the
// problem's declared start (when it has one), phase 1.
func (p *Problem) solve(ws *Workspace, prior *WarmStart) (*Solution, error) {
	if err := p.prepare(ws); err != nil {
		return nil, err
	}
	declined := DeclineNone
	if prior.Valid() {
		sol, why, err := p.enter(ws, prior, RungPrior)
		if sol != nil || err != nil {
			return sol, err
		}
		declined = why
	}
	var sol *Solution
	var err error
	if start := p.declaredStart(ws); start != nil {
		sol, _, err = p.enter(ws, start, RungDeclared)
	}
	if sol == nil && err == nil {
		if err = ws.tab.phase1(); err == nil {
			sol, err = p.finishSolve(ws, RungPhase1)
		}
	}
	if err != nil {
		return nil, err
	}
	sol.PriorDeclined = declined
	return sol, nil
}

// prepare builds the fresh tableau every rung starts from: the
// problem's one equilibration, then init.
func (p *Problem) prepare(ws *Workspace) error {
	if err := p.equilibrate(ws); err != nil {
		return err
	}
	ws.tab.init(ws, len(p.obj))
	return nil
}

// enter tries one rung on the fresh tableau: install b and run phase 2
// from it. A nil solution with a nil error is a decline, and leaves the
// tableau fresh for the next rung.
func (p *Problem) enter(ws *Workspace, b *WarmStart, rung Rung) (*Solution, Decline, error) {
	why, dirty := ws.tab.installBasis(b)
	if why == DeclineNone {
		sol, err := p.finishSolve(ws, rung)
		if err == nil {
			return sol, DeclineNone, nil
		}
		why, dirty = DeclinePhase2, true
	}
	if dirty {
		ws.tab.init(ws, len(p.obj))
	}
	return nil, why, nil
}

// declaredStart lays the problem's declared vertex out as a basis for
// the prepared tableau: the declared variable's column in each declared
// row, the row's slack elsewhere (-1 for an equality, which installBasis
// declines). It is nil when nothing was declared, or a declared row was
// dropped as empty. The result is workspace scratch.
func (p *Problem) declaredStart(ws *Workspace) *WarmStart {
	if len(p.start) == 0 {
		return nil
	}
	t := &ws.tab
	b := &ws.start
	b.m, b.n, b.ncols = t.m, t.n, t.ncols
	b.cols = grow(b.cols, t.m)
	copy(b.cols, t.slack)
	for i, v := range p.start {
		if v < 0 {
			continue
		}
		si := ws.rowMap[i]
		if si < 0 {
			return nil
		}
		b.cols[si] = int(v)
	}
	b.valid = true
	return b
}
