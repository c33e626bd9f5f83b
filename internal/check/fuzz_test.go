package check

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tetrium/internal/lp"
)

// FuzzSolve feeds the simplex randomly generated LPs — mixing unit-scale
// and 1e9-scale coefficients like the placement formulations do — and
// certifies every returned solution: primal feasibility, non-negativity,
// and optimality against the brute-force reference (small instances) or
// the weak-duality bound. Infeasible/unbounded verdicts are legitimate;
// a certificate failure or a panic is a solver bug. Each solved instance
// is then re-entered from its own final basis and from an arbitrary
// declared start, and must certify to the same optimum both times.
func FuzzSolve(f *testing.F) {
	for _, s := range []int64{1, 2, 3, 42, 9999, -7, 123456789} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(6)
		p := lp.NewProblem()

		// A known feasible point: most generated rows are anchored on it
		// so the instance is usually feasible, exercising the optimizer
		// rather than just the infeasibility detector.
		xstar := make([]float64, nv)
		for j := 0; j < nv; j++ {
			xstar[j] = rng.Float64() * math.Pow(10, float64(rng.Intn(4)))
			// Non-negative objective keeps min c·x bounded below.
			p.AddVar("v", rng.Float64()*math.Pow(10, float64(rng.Intn(3))))
		}

		nr := rng.Intn(7)
		for i := 0; i < nr; i++ {
			rowScale := math.Pow(10, float64(rng.Intn(10))) // 1 .. 1e9
			coefs := make(map[lp.Var]float64, nv)
			act := 0.0
			for j := 0; j < nv; j++ {
				if rng.Float64() < 0.3 {
					continue
				}
				c := (rng.Float64()*2 - 1) * rowScale
				coefs[lp.Var(j)] = c
				act += c * xstar[j]
			}
			if len(coefs) == 0 {
				continue
			}
			slack := rng.Float64() * rowScale
			switch rng.Intn(3) {
			case 0:
				p.AddConstraint(coefs, lp.LE, act+slack)
			case 1:
				p.AddConstraint(coefs, lp.GE, act-slack)
			default:
				p.AddConstraint(coefs, lp.EQ, act)
			}
		}
		// Occasionally add an unanchored row so infeasible instances
		// appear too.
		if rng.Float64() < 0.2 {
			coefs := map[lp.Var]float64{lp.Var(rng.Intn(nv)): 1}
			p.AddConstraint(coefs, lp.GE, rng.Float64()*10)
		}

		sol, err := p.Solve()
		if err != nil {
			var re *lp.ResidualError
			if errors.Is(err, lp.ErrInfeasible) || errors.Is(err, lp.ErrUnbounded) || errors.As(err, &re) {
				// Legitimate terminal verdicts (a ResidualError is the
				// solver honestly reporting its own numerical failure
				// instead of returning a bad point).
				return
			}
			t.Fatalf("unexpected solve error: %v", err)
		}
		if _, cerr := CertifyLP(p, sol); cerr != nil {
			t.Fatalf("certificate failed (seed %d): %v", seed, cerr)
		}

		// Warm≡cold differential: re-solve the same instance from its own
		// final basis. The warm solve must certify exactly like the cold
		// one and land on the same optimum.
		var w lp.WarmStart
		ws := lp.NewWorkspace()
		if _, err := p.SolveWarm(ws, &w); err != nil {
			t.Fatalf("warm seed solve failed where cold succeeded (seed %d): %v", seed, err)
		}
		warm, err := p.SolveWarm(ws, &w)
		if err != nil {
			t.Fatalf("warm re-solve failed (seed %d): %v", seed, err)
		}
		if _, cerr := CertifyLP(p, warm); cerr != nil {
			t.Fatalf("warm certificate failed (seed %d): %v", seed, cerr)
		}
		if d := math.Abs(warm.Objective - sol.Objective); d > 1e-6*(1+math.Abs(sol.Objective)) {
			t.Fatalf("warm objective %v differs from cold %v (seed %d)", warm.Objective, sol.Objective, seed)
		}

		// Declared-start differential: name an arbitrary variable basic in
		// an arbitrary subset of rows. Whether that is a vertex, a
		// singular set or an infeasible point, it may cost time only.
		for i := 0; i < p.NumConstraints(); i++ {
			if rng.Float64() < 0.6 {
				p.DeclareBasic(i, lp.Var(rng.Intn(nv)))
			}
		}
		decl, err := p.SolveInto(ws)
		if err != nil {
			t.Fatalf("solve from a declared start failed where phase 1 succeeded (seed %d): %v", seed, err)
		}
		if _, cerr := CertifyLP(p, decl); cerr != nil {
			t.Fatalf("declared-start certificate failed, rung %v (seed %d): %v", decl.Rung, seed, cerr)
		}
		if d := math.Abs(decl.Objective - sol.Objective); d > 1e-6*(1+math.Abs(sol.Objective)) {
			t.Fatalf("objective %v from rung %v differs from phase 1's %v (seed %d)", decl.Objective, decl.Rung, sol.Objective, seed)
		}
	})
}
