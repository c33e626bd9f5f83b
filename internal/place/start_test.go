package place

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tetrium/internal/check"
	"tetrium/internal/lp"
	"tetrium/internal/units"
)

// TestPropertyInPlaceStartMatchesPhase1 solves each §3.1 map LP of a
// seeded random population twice, entered at the in-place vertex and
// through phase 1: both solutions must pass the certifier and agree on
// the LP objective, and the two placements on the apportioned task
// matrix. The population covers what decides whether the vertex exists
// and where phase 2 goes from it: zero-slot sites with data (no vertex:
// the declaration must be withheld, not wrong) and without (their
// equality rows need a basic column), sites without data, the §4.3 row
// at ρ ∈ {0, ½, 1} (ρ = 0 makes the start the optimum), and candidate
// sets restricted by MaxDest, for which production declares nothing yet
// (ROADMAP 4(e)).
func TestPropertyInPlaceStartMatchesPhase1(t *testing.T) {
	const trials = 400
	declared := 0
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		res := Resources{Slots: make([]int, n), UpBW: make([]float64, n), DownBW: make([]float64, n)}
		for i := 0; i < n; i++ {
			if rng.Float64() >= 0.15 {
				res.Slots[i] = 1 + rng.Intn(100)
			}
			res.UpBW[i] = (10 + rng.Float64()*1990) * units.Mbps
			res.DownBW[i] = (10 + rng.Float64()*1990) * units.Mbps
		}
		res.Slots[rng.Intn(n)] = 1 + rng.Intn(100)
		input := make([]float64, n)
		for i := range input {
			if rng.Float64() >= 0.25 {
				input[i] = rng.Float64() * 30 * units.GB
			}
		}
		input[rng.Intn(n)] = (1 + rng.Float64()) * units.GB
		req := MapRequest{
			InputBySite: input,
			NumTasks:    1 + rng.Intn(300),
			TaskCompute: 0.1 + rng.Float64()*5,
			WANBudget:   WANBudget(float64(rng.Intn(3))/2, MapBudget, input),
			OutputBytes: rng.Float64() * 10 * units.GB,
		}
		tet := Tetrium{Check: true}
		if rng.Float64() < 0.4 {
			tet.MaxDest = 1 + rng.Intn(n)
		}
		dests := tet.candidateDests(res)

		ws := lp.NewWorkspace()
		var sols [2]*lp.Solution
		var errs [2]error
		for k, inPlace := range []bool{false, true} {
			prob := lp.NewProblem()
			buildMapLP(prob, acquireScratch(), res, req, dests, inPlace)
			sols[k], errs[k] = prob.SolveInto(ws)
			if errs[k] != nil {
				continue
			}
			if _, cerr := check.CertifyLP(prob, sols[k]); cerr != nil {
				t.Fatalf("seed %d inPlace=%v: certificate: %v", seed, inPlace, cerr)
			}
		}
		if errs[0] != nil || errs[1] != nil {
			// ρ = 0 with data on a zero-slot site: the same verdict
			// either way.
			if !errors.Is(errs[0], lp.ErrInfeasible) || !errors.Is(errs[1], lp.ErrInfeasible) {
				t.Fatalf("seed %d: phase 1 err %v, in-place err %v", seed, errs[0], errs[1])
			}
			continue
		}
		if sols[0].Rung != lp.RungPhase1 {
			t.Fatalf("seed %d: undeclared solve entered at %v", seed, sols[0].Rung)
		}
		vertex := true // in-place is a vertex iff every data-holding site can compute
		for x, b := range input {
			vertex = vertex && (b == 0 || res.Slots[x] > 0)
		}
		if entered := sols[1].Rung == lp.RungDeclared; entered != vertex {
			t.Errorf("seed %d: in-place vertex exists: %v, but the solve entered at %v", seed, vertex, sols[1].Rung)
		}
		if vertex {
			declared++
		}
		if d := math.Abs(sols[0].Objective - sols[1].Objective); d > 1e-9*math.Abs(sols[0].Objective) {
			t.Errorf("seed %d: objective %v from phase 1, %v from the in-place start", seed, sols[0].Objective, sols[1].Objective)
		}
		a, err := tet.solveMap(res, req, dests, ws, nil, false)
		if err != nil {
			t.Fatalf("seed %d: solveMap from phase 1: %v", seed, err)
		}
		b, err := tet.solveMap(res, req, dests, ws, nil, true)
		if err != nil {
			t.Fatalf("seed %d: solveMap from the in-place start: %v", seed, err)
		}
		for x := range a.Tasks {
			for y := range a.Tasks[x] {
				if a.Tasks[x][y] != b.Tasks[x][y] {
					t.Fatalf("seed %d: tasks[%d][%d] = %d from phase 1, %d from the in-place start", seed, x, y, a.Tasks[x][y], b.Tasks[x][y])
				}
			}
		}
	}
	if declared < trials/3 {
		t.Errorf("only %d of %d LPs entered at the in-place vertex: the population no longer exercises it", declared, trials)
	}
}
